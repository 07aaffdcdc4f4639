"""Multi-server private linear transformation toolkit.

Retrieve one linear combination of a hidden subset of database messages
from N replicated servers without revealing, to any single server, which
messages are involved.  The package covers the full pipeline: exact prime
field arithmetic, query construction, download planning, decoding, exact
capacity formulas, privacy audits, and a small TCP transport.
"""

from .capacity import (CapacityQuery, CapacityReport, baseline_rates,
                       mpir_psi_capacity, phi, pir_psi_capacity,
                       plt_capacity_L1, plt_upper_bound)
from .engine import (Database, QueryBundle, RunOverrides, RunResult,
                     ServerQuery, Transcript, build_query, build_transcript,
                     combination_stream, derive_rng, mds_check,
                     recover_demand, required_symbols, run_pir_psi_via_plt,
                     run_plt, server_answer)
from .fields import DivisionByZero, NotPrime, Poly, PrimeField, field_new
from .grs import (Demand, FieldTooSmall, FunctionTable, GrsSecret,
                  SuperMessageSpec, build_function_table, build_q_vectors,
                  build_secret, choose_omegas, enumerate_subsets,
                  y_coefficients)
from .plan import (BadIndex, Expression, GuardLimits, InternalInvariant,
                   PcPlan, QueryTerms, SizeGuard, SymbolMask, Undecodable,
                   build_mask, eliminate_redundancy, generate_full_blocks,
                   pc_answer, pc_decode)
from .audit import (ParamsTooLarge, PrivacyReport, RateReport, ShapeReport,
                    StructureReport, check_shape_independence,
                    check_support_structure, measure_rate, query_signature,
                    recover_points, signature_tallies, tv_distance,
                    tv_privacy_test)
from .wire import (ConnectionFailed, DEFAULT_PORT, Malformed, Overflow,
                   PltServer, RemoteError, client_run, push_database,
                   resolve_bind)

__version__ = "0.1.0"

__all__ = [
    "BadIndex", "CapacityQuery", "CapacityReport", "ConnectionFailed",
    "DEFAULT_PORT", "Database", "Demand", "DivisionByZero", "Expression",
    "FieldTooSmall", "FunctionTable", "GrsSecret", "GuardLimits",
    "InternalInvariant", "Malformed", "NotPrime", "Overflow",
    "ParamsTooLarge", "PcPlan", "PltServer", "Poly", "PrimeField",
    "PrivacyReport", "QueryBundle", "QueryTerms", "RateReport", "RemoteError",
    "RunOverrides", "RunResult", "ServerQuery", "ShapeReport",
    "StructureReport", "SuperMessageSpec", "SymbolMask", "Transcript",
    "Undecodable", "baseline_rates", "build_function_table", "build_mask",
    "build_q_vectors", "build_query", "build_secret", "build_transcript",
    "check_shape_independence", "check_support_structure", "choose_omegas",
    "client_run", "combination_stream", "derive_rng",
    "eliminate_redundancy", "enumerate_subsets", "field_new",
    "generate_full_blocks", "mds_check", "measure_rate",
    "mpir_psi_capacity", "pc_answer", "pc_decode", "phi",
    "pir_psi_capacity", "plt_capacity_L1", "plt_upper_bound",
    "push_database", "query_signature", "recover_demand", "recover_points",
    "required_symbols", "resolve_bind", "run_pir_psi_via_plt", "run_plt",
    "server_answer", "signature_tallies", "tv_distance", "tv_privacy_test",
    "y_coefficients",
]
