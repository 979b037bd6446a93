"""Byte-identity of shipped outputs, checked on the quickest runs.

``python tests/output_hashes.py`` checks every recorded run.  The
quick ones are three thermodynamic linear-ramp sweeps, the QRM size
crossover, which covers a finite-size model and the size-crossover
writer, two structured-bath sweeps, which cover the chain network,
its system-column stages and its exact sub-flow, and a Markovian
``dump-trajectory``, which covers the sampled path and the trajectory
writer.  ``ohmic_nonlinear.cfg`` is the only shipped config whose
structured stages take the per-member ramp variable of a nonlinear
ramp.
"""

import output_hashes

QUICK_CONFIGS = [
    "dump-trajectory critical_akz_thermal.cfg",
    "isolated_adiabatic.cfg",
    "isolated_kz.cfg",
    "offcritical_linear_weak_coupling.cfg",
    "ohmic_nonlinear.cfg",
    "ohmic_offcritical.cfg",
    "qrm_size_crossover.cfg",
]


def test_quick_configs_match_their_recorded_hashes(capsys):
    assert output_hashes.main(QUICK_CONFIGS) == 0, capsys.readouterr().out
