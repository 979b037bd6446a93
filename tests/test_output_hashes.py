"""Byte-identity of shipped outputs, checked on the quickest configs.

``python tests/output_hashes.py`` checks every recorded config; these
three linear ramps take a few seconds in all.
"""

import output_hashes

QUICK_CONFIGS = ["isolated_adiabatic.cfg", "isolated_kz.cfg", "offcritical_linear_weak_coupling.cfg"]


def test_quick_configs_match_their_recorded_hashes(capsys):
    assert output_hashes.main(QUICK_CONFIGS) == 0, capsys.readouterr().out
