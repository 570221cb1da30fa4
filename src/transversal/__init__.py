"""Transversal (rainbow) embedding toolkit for graph collections.

Graph collections, weak-regularity checking and partitioning, templates,
the transversal embedding procedures with colour absorption, seeded
generators and exact brute-force oracles.
"""

from .core import (
    GraphCollection,
    NotCertified,
    PatternGraph,
    SeparabilityCertificate,
    SimpleGraph,
    ThreeGraph,
    TransversalEmbedding,
    VerificationReport,
    from_three_graph,
    separability_certificate,
    verify_expansion,
    verify_transversal_embedding,
)
from .embed import (
    Absorber,
    EmbedOutcome,
    Failure,
    SplitPlan,
    UnverifiedOutput,
    approx_embed,
    blowup_embed,
    build_absorber,
    embed_prescribed_colours,
    equitable_colouring,
    expand_embed_3graph,
    find_induced_matching,
    partial_embed,
    quasi_embed,
    transversal_blowup,
)
from .oracle import (
    OracleResult,
    SearchBudget,
    count_rainbow_copies,
    exact_transversal_embed,
    monochromatic_triangle_count,
    tight_hamilton_search,
)
from .regularity import (
    DensitySpec,
    IrregularityWitness,
    ParameterLedger,
    RegularityPartition,
    density,
    irregularity_witness,
    ledger_slice,
    make_ledger,
    partition_collection,
    sparsify_to_superregular,
    typical_elements,
)
from .templates import (
    Template,
    ThickGraph,
    make_template,
    thick_graph,
)

__version__ = "0.1.0"
