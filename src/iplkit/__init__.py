"""Toolkit for intuitionistic propositional logic.

Formulas with an injective numeric encoding, a Hilbert-style proof
kernel with a derived-rule catalog and the deduction theorem, finite
Kripke semantics with countermodel search, consistent-pair saturation
over finite universes, finite Heyting algebras with filter theory, the
Lindenbaum quotient at desk scale, and the closed-set / prime-filter
bridge between the two semantics.
"""

from .formula import (And, BOT, Bottom, Formula, Implies, Or, TOP, Var,
                      Variable, all_formulas, decode, depth, encode, iff, neg,
                      order_key, pairing, parse, render, subformulas,
                      unpairing, var, variable_indices, variables)
from .proof import (CATALOG, ProofTerm, check, deduction_theorem, derived,
                    infer_conclusion, proof_from_json, proof_to_json, weaken)
from .kripke import (KripkeModel, consequence_over_models, enumerate_models,
                     find_countermodel, first_refutation, forces, forces_all,
                     forcing_is_monotone, make_model, model_from_json,
                     model_to_json, truth_mask, valid_in_model,
                     validate_model)
from .heyting import (FiniteHeytingAlgebra, Interpretation, algebra_from_json,
                      algebra_from_le, algebra_to_json, chain,
                      consequence_over_algebras, generated_filter,
                      himp_from_order, himp_not_mem_check, interpret,
                      is_filter, is_prime_filter, is_proper_filter,
                      join_bound_witness, make_algebra, make_interpretation,
                      meet_bound_witness, prime_filter_avoiding,
                      prime_filters, prime_intersection, product_algebra,
                      super_prime_filter, true_in_algebra, valid_in_algebra,
                      validate_algebra)
from .theories import (Budget, Fails, FormulaPair, FormulaUniverse, Holds,
                       Oracle, OracleInconclusive, Provable, Refuted, Unknown,
                       add_formula_to_pair, budget_from_env,
                       canonical_universe, conj_fold, disj_fold,
                       family_increasing_check, is_consistent, is_ded_closed,
                       is_disjunctive, make_pair, make_universe,
                       pair_consistent, saturate_pair, saturation_trace)
from .lindenbaum import (OutOfUniverse, QuotientTable, build_quotient,
                         class_of, provably_equivalent, provably_leq,
                         quotient_ops_well_defined, truth_matches_provability)
from .bridge import (ClosedSetAlgebra, HarnessReport, algebra_model_agreement,
                     algebras_isomorphic, closed_set_algebra, closed_sets,
                     model_algebra_agreement, models_isomorphic,
                     prime_filter_frame, truth_set, validity_harness)
from .catalog import (chain_model, fork_model, identity_model,
                      standard_algebras)

__version__ = "0.1.0"
