"""slicegate: exact knot concordance invariants and 4-genus obstruction reports."""

from .bounds import GenusBounds, Interval
from .laurent import (FoxMilnorResult, InvalidAlexanderError, LaurentPoly, factor, fox_milnor,
                      normalize)
from .knotdb import (KnotRecord, KnotStore, ingest_csv, load, save, seed_table,
                     whitehead_double_record)
from .obstruct import (AppliedRule, InconsistentBoundsError, ObstructionReport,
                       Verdict, aggregate, yasuhara)
from .plfunc import (CobordismCheck, PLFunction, cable_sandwich, cobordism_inequality,
                     euler_number_range, g4_lower_bound, oss_gamma4_lower_bound,
                     two_q_upsilon_interval, upsilon_little)
from .seifert import (NotASeifertMatrixError, SeifertMatrix, alexander, arf, arf_murasugi,
                      determinant, genus_bounds_from_matrix, levine_tristram, signature)
from .whitehead import (CompanionInvariants, InvariantClashError, MissingInvariantError,
                        WhiteheadParams, cable_target, epsilon_whitehead, gamma4_whitehead,
                        seifert_matrix, tau_whitehead, upsilon_whitehead)

__version__ = "0.1.0"
