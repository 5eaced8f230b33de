"""PAC MAP inference over smooth, decomposable probabilistic circuits."""

from .circuit import (
    MARGINAL,
    BernoulliLeaf,
    Circuit,
    CircuitFormatError,
    CircuitStructureError,
    IndicatorLeaf,
    ProductNode,
    StructureReport,
    SumNode,
    WeightNormalizationWarning,
    circuit_from_pmf,
    evaluate_complete,
    evaluate_marginal,
    generate_deterministic_circuit,
    generate_random_circuit,
    load_circuit,
    parse_circuit,
    save_circuit,
    serialize_circuit,
)
from .inference import (
    ConditionalOracle,
    QuerySpec,
    TabularDistribution,
    ZeroEvidenceError,
    brute_force_map,
    make_oracle,
    min_entropy,
    parse_query_spec,
    sample_joint,
    superlevel_mass,
    tabulate_conditional,
)
from .rng import DrawStream, as_stream, derive_seed
from .solvers import (
    Budget,
    Certificate,
    DeterministicEps,
    Exact,
    Pac,
    PacParams,
    ParetoFront,
    SampleSet,
    Solution,
    TrajectoryPoint,
    budget_pac_map,
    hamming_ball,
    naive_map,
    pac_map,
    pareto_delta,
    pareto_front,
    smooth_pac_map,
    stop_time,
)
from .baselines import arg_max_product, independent_map, max_product
from .bench import (
    BenchConfig,
    BenchRecord,
    draw_evidence,
    parse_bench_config,
    random_query_partition,
    rank_methods,
    render_summary,
    run_benchmark,
    write_records_csv,
)

__version__ = "0.1.0"
