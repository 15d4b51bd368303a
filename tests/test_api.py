"""The settings of the exported API: every defaulted parameter of every function.

A knob added or removed shows as a one-line diff of ``SETTINGS``.  A setting
belongs here only when some caller passes a second value or the callee cannot
work the value out itself; otherwise it is a constant.
"""

import inspect

import gjsmap

#: Function name -> its defaulted parameters, in signature order.
SETTINGS = {
    "build_gha": ["bound"],
    "build_gsl2": ["cut_tol", "bound"],
    "build_jsmap": ["bound"],
    "cobweb": ["window", "samples", "bound", "guide_lines"],
    "figure_bundle": ["bound"],
    "find_roots": ["tol"],
    "iterate": ["bound"],
    "two_oscillator_space": ["bound"],
    "verify_gha_relations": ["tol"],
    "verify_gsl2_relations": ["tol"],
    "verify_jsmap_relations": ["tol"],
    "verify_map_equals_gsl2": ["tol"],
    "verify_pairing_identity": ["tol"],
}


def test_exported_settings_match_the_table():
    found = {}
    for name in gjsmap.__all__:
        function = getattr(gjsmap, name)
        if inspect.isfunction(function):
            parameters = inspect.signature(function).parameters.values()
            defaulted = [p.name for p in parameters if p.default is not p.empty]
            if defaulted:
                found[name] = defaulted
    assert found == SETTINGS
