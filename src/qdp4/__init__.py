"""Exact invariants of quartic del Pezzo surfaces presented as pencils of quadrics."""

from .fields import (GF, QQ, DegenerateInputError, FFElem, FieldMismatchError,
                     Poly, UnsupportedFieldError, factor, field_from_descriptor,
                     is_square, rational_roots, squarefree)
from .hyperoct import CycleSignature, SignedPerm, fiber_product_order, retract
from .kgroups import (K0ClassX, class_of, conic_bundle_ranks, euler_x,
                      g_invariant_rank, is_minimal, serre_from_gram, wpl_gram)
from .pencil import (DegeneratePencilError, NotSmoothError, QuadricPencil,
                     ResourceLimitError, UnsupportedSplittingError,
                     canonical_invariant, count_points, discriminant_quintic,
                     galois_signature, is_smooth, isomorphic, predicted_count,
                     reconstruct)
from .picard import intersect, pair_of, reflect, roots, weyl_group, zero_classes
from .wpline import (Moebius, PointConfiguration, ProjPoint, aut_group,
                     pgl2_match)

__version__ = "0.1.0"
