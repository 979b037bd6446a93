"""Byte-identity of shipped outputs, checked on the quickest runs.

``python tests/output_hashes.py`` checks every recorded run.  The
quick ones are three thermodynamic linear-ramp sweeps, the QRM size
crossover, which covers a finite-size model and the size-crossover
writer, two structured-bath sweeps, which cover the chain network,
its collocation steps of the isolated mode's propagator U and its
chain frame, and a Markovian ``dump-trajectory``, which covers sampling
(each sample one more stop of the engine, the step carried across
stops) and the trajectory writer.  ``ohmic_nonlinear.cfg`` is the only
shipped config whose structured steps take the per-member ramp
variable of a nonlinear ramp.
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
