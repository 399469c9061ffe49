"""Exact invariants of quartic del Pezzo surfaces presented as pencils of quadrics."""

from .fields import (GF, QQ, DegenerateInputError, FFElem, FieldMismatchError,
                     Poly, UnsupportedFieldError, factor, field_from_descriptor,
                     is_square, rational_roots, squarefree)
from .hyperoct import (CycleSignature, FiberElement, SignedPerm, aut0_matrices,
                       fiber_product, retract, retract_fiber)
from .kgroups import (K0ClassX, atom_basis, class_of, conic_bundle_ranks,
                      euler_x, g_invariant_rank, serre_from_gram, wpl_gram)
from .pencil import (DegeneratePencilError, NormalForm, NotSmoothError,
                     QuadricPencil, ResourceLimitError, UnsupportedSplittingError,
                     canonical_invariant, count_points, discriminant_quintic,
                     galois_signature, is_smooth, isomorphic, normal_form,
                     predicted_count, reconstruct, simultaneous_diagonalize)
from .picard import (canonical_class, intersect, is_minimal, pair_of, reflect,
                     roots, to_signed_perm, weyl_group, zero_classes)
from .wpline import (Moebius, PointConfiguration, ProjPoint, aut_group,
                     pgl2_match)

__version__ = "0.1.0"
