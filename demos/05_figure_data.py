"""Produce the plot data behind the four stock figures.

Each series is written as its report JSON, the record (the curve's sample
count, the full iterate sequence and its drawn step count, fixed points and
boundaries), plus a CSV pair, the plot table: the curve as ``x,fn`` (draw
the diagonal y = x from its ``x`` column) and the cobweb segments.  Point any
plotting tool at the CSVs; nothing here renders images.
"""

import json
from pathlib import Path

from gjsmap import figure_bundle, write_bundle

out = Path("figure_data")
for name in ("fig1", "fig2", "fig3", "fig4"):
    bundle = figure_bundle(name)
    files = write_bundle(bundle, out)
    print(f"{name}: wrote {len(files)} files")
    for series, report in bundle.reports:
        flags = []
        if report.truncated_divergence:
            flags.append("orbit diverged")
        if report.truncated_window:
            flags.append("trace left the window")
        print(
            f"  series {series!r}: x0 = {report.x0}, {len(report.iterates) - 1} "
            f"iterations, {len(report.cobweb_segments)} segments"
            + (f" ({'; '.join(flags)})" if flags else "")
        )

print("\nfiles under", out.resolve())
sample = json.loads((out / "fig3_a.json").read_text())
print("fig3 guide lines:", sample["guide_lines"])
print("fig3 orbit:", sample["iterates"])
