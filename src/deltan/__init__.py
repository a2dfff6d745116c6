"""Finite commutative rings, ideal expansions, and the delta-n-ideal toolkit."""

from .errors import (ConstructionError, CrossRingError, DeltanError, DslError,
                     ExpansionAxiomError, HomomorphismError, ImproperIdealError,
                     InfiniteRingError, InvalidSpecError, UnknownClaimError)
from .rings import (Element, ElementClass, IntegerSpec, ModularSpec,
                    PolyQuotientSpec, ProductSpec, Ring, RingClass, arithmetic,
                    check_ring_axioms, classify_element, classify_ring,
                    construct_ring, integers, list_elements, modular,
                    poly_quotient, product)
from .ideals import (Ideal, IdealClass, SpecialSets, classify_ideal, colon,
                     enumerate_ideals, ideal_combine, ideal_contains,
                     ideal_from_generators, integer_ideal, nilradical, radical,
                     special_sets, unit_ideal, zero_ideal)
from .expansions import (Expansion, ExpansionProfile, apply_expansion,
                         compose_expansions, delta0, delta1, delta_plus,
                         delta_star, derive_idealization_expansion,
                         derive_localized_expansion, derive_product_expansion,
                         derive_quotient_expansion, full_expansion,
                         make_expansion, profile_expansion)
from .predicates import (DELTA_N_METHODS, DeltaNSpectrum, delta_n_masks,
                         delta_n_spectrum, delta_n_witness, delta_nilpotents,
                         is_delta_n_ideal, is_delta_primary, is_n_ideal,
                         is_quasi_n_ideal, n_ideal_witness, quasi_n_witness)
from .constructions import (Homomorphism, Module, MultiplicativeSet, Submodule,
                            enumerate_submodules, idealization, image_ideal,
                            is_delta_gamma_homomorphism, localize,
                            make_homomorphism, make_module, mult_closure,
                            mult_set, preimage_ideal, quotient_ring)

__version__ = "0.1.0"
