"""Toolkit for intuitionistic propositional logic.

Formulas with an injective numeric encoding, a Hilbert-style proof
kernel with a derived-rule catalog and the deduction theorem, finite
Kripke semantics with countermodel search, consistent-pair saturation
over finite universes, finite Heyting algebras with filter theory, the
Lindenbaum quotient at desk scale, and the closed-set / prime-filter
bridge between the two semantics.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each module.
_EXPORTS = {
    "formula": """And BOT Bottom Formula Implies Or TOP Var Variable
        all_formulas decode depth encode iff neg order_key pairing parse
        render subformulas unpairing var variable_indices variables""",
    "proof": """CATALOG ProofTerm check deduction_theorem derived
        infer_conclusion proof_from_json proof_to_json weaken""",
    "kripke": """CountermodelSearchTooLarge KripkeModel
        consequence_over_models enumerate_models find_countermodel
        first_refutation forces forces_all forcing_is_monotone make_model
        model_from_json model_to_json truth_mask valid_in_model
        validate_model""",
    "heyting": """FiniteHeytingAlgebra Interpretation algebra_from_json
        algebra_from_le algebra_to_json chain consequence_over_algebras
        generated_filter himp_from_order himp_not_mem_check interpret
        is_filter is_prime_filter is_proper_filter join_bound_witness
        make_algebra make_interpretation meet_bound_witness
        prime_filter_avoiding prime_filters prime_intersection
        product_algebra super_prime_filter true_in_algebra valid_in_algebra
        validate_algebra""",
    "theories": """Budget Fails FormulaPair FormulaUniverse Holds Oracle
        OracleInconclusive Provable Refuted Unknown add_formula_to_pair
        budget_from_env canonical_universe conj_fold disj_fold
        family_increasing_check is_consistent is_ded_closed is_disjunctive
        make_pair make_universe pair_consistent saturate_pair
        saturation_trace""",
    "lindenbaum": """OutOfUniverse QuotientTable build_quotient class_of
        provably_equivalent provably_leq quotient_ops_well_defined
        truth_matches_provability""",
    "bridge": """ClosedSetAlgebra HarnessReport algebra_model_agreement
        algebras_isomorphic closed_set_algebra closed_sets
        model_algebra_agreement models_isomorphic prime_filter_frame
        truth_set validity_harness""",
    "catalog": "chain_model fork_model identity_model standard_algebras",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
# The modules are public names too, as when the package imported them all
# (theories imported the prover).
_MODULES = {*_EXPORTS, "prover"}
__all__ = sorted({*_HOME, *_MODULES})


def __getattr__(name):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*__all__, *(name for name in globals()
                               if name[:1] != "_" or name[:2] == "__")})
