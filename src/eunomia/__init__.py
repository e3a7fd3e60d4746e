"""Movement-aware control-domain partitioning for hierarchical satellite
networks: constellation geometry, FOV visibility, gravity-model traffic, an
analytic control-overhead model, spectral domain partitioning with optimal
controller matching, and a deterministic control-plane emulator."""

from .constellation import (
    Constellation,
    GroundStationNode,
    NetworkSnapshot,
    Role,
    ShellSpec,
    orbital_period,
)
from .corg import Corg, CorgEdges, CorgWeights, SimilarityMatrix, build_corg, corg_edges, similarity
from .emulator import EmulationStats, EmulatorParams, run_scenario, run_slot
from .overhead import (
    ConstraintViolationError,
    OverheadParams,
    OverheadReport,
    control_efficiency,
    evaluate,
    validate_assignment,
)
from .partition import (
    DomainAssignment,
    PartitionContext,
    UncoverableLeoError,
    brute_force_partition,
    fine_tune_boundaries,
    greedy_partition,
    km_match,
    odc_partition,
    partition_slot,
    spectral_cluster,
)
from .scenario import Scenario, ScenarioConfig, build_scenario, desk_config, load_config
from .traffic import TrafficMatrix, TrafficParams, build_grid, scale
from .visibility import (
    OverlapRegion,
    TimeSlot,
    compute_fov_domains,
    compute_overlap_regions,
    segment_time_slots,
)

__version__ = "0.1.0"
