"""E10 — validation of the lumped error model against the RC network.

The high-level error model reduces each transition to closed-form
glitch/delay thresholds; this experiment checks those reductions against
the coupled-RC network solution (eigen-decomposition of the symmetric
capacitance matrix into decaying modes) over a sample of defective
capacitance sets and MA patterns:

* delay: the Miller-factor Elmore estimate versus the ODE 50 %-crossing;
* glitch: amplitude monotonicity and decision agreement using
  analogously calibrated ODE thresholds.
"""

from conftest import emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.maf import FaultType, MAFault, ma_vector_pair
from repro.soc.bus import BusDirection
from repro.xtalk.rc_model import worst_case_delay
from repro.xtalk.waveform import simulate_transition

SAMPLE = 40


#: A defect counts as "clear" when the victim's net coupling is at least
#: this far from Cth; near-threshold cases are ambiguous under *any* pair
#: of first-order models.
CLEAR_MARGIN = 0.10


def _victim_at_threshold(caps, calibration, victim):
    """The nominal bus with ``victim``'s couplings scaled onto Cth."""
    n = caps.wire_count
    scale = calibration.cth / caps.net_coupling(victim)
    factors = [[1.0] * n for _ in range(n)]
    for j, _ in caps.neighbours(victim):
        factors[victim][j] = factors[j][victim] = scale
    return caps.perturbed(factors)


def compare(address_setup):
    params = address_setup.params
    calibration = address_setup.calibration
    width = address_setup.caps.wire_count
    delay_ratios = []
    agree = {"all": 0, "clear": 0}
    total = {"all": 0, "clear": 0}
    threshold_cache = {}

    def ode_thresholds(victim):
        if victim not in threshold_cache:
            at_threshold = _victim_at_threshold(
                address_setup.caps, calibration, victim
            )
            dpair = ma_vector_pair(
                MAFault(
                    victim=victim, fault_type=FaultType.RISING_DELAY, width=width
                )
            )
            delay = simulate_transition(
                at_threshold, params, dpair.v1, dpair.v2
            ).delay_to_half(victim)
            gpair = ma_vector_pair(
                MAFault(
                    victim=victim,
                    fault_type=FaultType.POSITIVE_GLITCH,
                    width=width,
                )
            )
            glitch = simulate_transition(
                at_threshold, params, gpair.v1, gpair.v2
            ).glitch_peak(victim)
            threshold_cache[victim] = (delay, glitch)
        return threshold_cache[victim]

    def tally(is_clear, matches):
        total["all"] += 1
        agree["all"] += matches
        if is_clear:
            total["clear"] += 1
            agree["clear"] += matches

    for defect in list(address_setup.library)[:SAMPLE]:
        victim = defect.defective_wires[0]
        net = defect.caps.net_coupling(victim)
        clear = abs(net - calibration.cth) / calibration.cth >= CLEAR_MARGIN
        delay_threshold, glitch_threshold = ode_thresholds(victim)

        dpair = ma_vector_pair(
            MAFault(victim=victim, fault_type=FaultType.RISING_DELAY, width=width)
        )
        waveform = simulate_transition(defect.caps, params, dpair.v1, dpair.v2)
        ode_delay = waveform.delay_to_half(victim)
        lumped = worst_case_delay(
            defect.caps, params, victim, BusDirection.CPU_TO_MEM
        )
        if ode_delay != float("inf"):
            delay_ratios.append(ode_delay / lumped)
        lumped_fails = lumped > calibration.margin_for(BusDirection.CPU_TO_MEM)
        tally(clear, lumped_fails == (ode_delay > delay_threshold))

        gp = ma_vector_pair(
            MAFault(
                victim=victim, fault_type=FaultType.POSITIVE_GLITCH, width=width
            )
        )
        gw = simulate_transition(defect.caps, params, gp.v1, gp.v2)
        tally(clear, (net > calibration.cth)
              == (gw.glitch_peak(victim) > glitch_threshold))
    return delay_ratios, agree, total


def test_e10_model_validation(benchmark, address_setup):
    delay_ratios, agree, total = benchmark.pedantic(
        compare, args=(address_setup,), rounds=1, iterations=1
    )
    clear_rate = agree["clear"] / max(1, total["clear"])
    all_rate = agree["all"] / max(1, total["all"])
    rows = [
        ("delay ratio (ODE/lumped) min", f"{min(delay_ratios):.3f}"),
        ("delay ratio (ODE/lumped) max", f"{max(delay_ratios):.3f}"),
        ("decision agreement (all defects)",
         f"{agree['all']}/{total['all']} ({100 * all_rate:.1f}%)"),
        (f"decision agreement (margin > {CLEAR_MARGIN:.0%})",
         f"{agree['clear']}/{total['clear']} ({100 * clear_rate:.1f}%)"),
    ]
    emit(
        "E10 — lumped error model vs coupled-RC network "
        f"({SAMPLE} defects, MA patterns)",
        format_table(("quantity", "value"), rows),
    )
    records = [
        ExperimentRecord(
            "E10",
            "lumped/ODE pass-fail agreement (clear cases)",
            "(model adopted from [1])",
            f"{100 * clear_rate:.1f}%",
            note="near-threshold cases are ambiguous in any model pair",
        ),
        ExperimentRecord(
            "E10",
            "Elmore delay tracking",
            "(first-order)",
            f"within {100 * (max(delay_ratios) - 1):.0f}% above, "
            f"{100 * (1 - min(delay_ratios)):.0f}% below",
        ),
    ]
    emit_records("E10 — record", records)
    assert clear_rate >= 0.9
    assert 0.5 < min(delay_ratios) and max(delay_ratios) < 2.0
