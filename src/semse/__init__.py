"""Semantic spectral efficiency simulation and channel allocation."""

from .allocator import (
    Assignment,
    Constraints,
    DropMatches,
    PairPlan,
    PlanArrays,
    allocate_conventional,
    allocate_semantic,
    best_pair_plan,
    brute_force_allocation,
    build_pair_plans,
    conventional_drops,
    hungarian_max,
    match_drops,
    semantic_drops,
    weight_matrix,
)
from .channel import (
    LinkRealization,
    NetworkDrop,
    RadioParams,
    pathloss_db,
    sample_drop,
    sample_drops,
    snr,
)
from .harness import (
    ScenarioConfig,
    ScenarioError,
    SweepRecord,
    crossover_bits_per_word,
    emit_csv,
    load_scenario,
    run_model_comparison,
    run_scenario,
)
from .link_adaptation import (
    CqiTable,
    SystemKind,
    builtin_table,
    check_builtin_tables,
    load_cqi_table,
    shannon_se,
    snr_to_cqi,
    table_se,
)
from .metrics import (
    SourceStats,
    TransformFactor,
    equivalent_semantic_rate,
    equivalent_semantic_se,
    semantic_rate,
    semantic_se,
)
from .similarity import SimilaritySurface, default_surrogate, load_surface

__version__ = "0.1.0"
