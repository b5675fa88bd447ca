"""duplink: uplink power allocation in dual-connectivity cellular networks.

A discrete-time simulator and analysis toolkit for networks where every user
equipment transmits simultaneously to two points of access over orthogonal
channels, and the access points forward traffic over capacity-limited
backhaul links. Ships four adaptation policies (waterfilling, greedy
rate-cap allocation, backhaul-state-driven transmission, fixed-target-SINR),
the linear-system machinery that predicts and certifies their convergence,
a random topology generator, and a CLI for single runs and seeded Monte
Carlo sweeps.
"""

__version__ = "0.1.0"

from .backhaul import (
    BackhaulReport,
    BackhaulState,
    classify_state,
    rate_differentials,
)
from .engine import (
    SweepPoint,
    Trace,
    TraceCsv,
    Verdict,
    aggregate,
    initial_state,
    monte_carlo,
    run,
    step,
)
from .equilibrium import (
    InapplicableCheck,
    build_system,
    closed_form_equilibrium,
    rescaling_sinr_bound_check,
    spectral_radius,
)
from .metrics import (
    CrossGainMatrices,
    PowerState,
    build_matrices,
    compute_state,
    effective_interference,
    stack_matrices,
)
from .network import (
    UE,
    Channel,
    Gains,
    PoA,
    PoAKind,
    Scenario,
    ScenarioArrays,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .policies import (
    POLICY_NAMES,
    bdt_update,
    fm_update,
    greedy_update,
    rate_cap_power,
    waterfill,
)
from .scenarios import (
    HIGH_BACKHAUL,
    LIMITED_BACKHAUL,
    GenParams,
    generate,
    generate_arrays,
    generate_mixed,
    worked_example,
)

__all__ = [name for name in dir() if not name.startswith("_")]
