"""Trees with arity-flexible vertices, their maps, and equivariant variants."""

from .trees import (
    Tree, TreeError, DanglingEdge, MultipleParents, RootHasParent,
    Disconnected, Cyclic, SiteNotLeafOrRoot, canonical_form,
    single_edge, corolla, linear_tree, relabel, relabel_canonical,
    all_isomorphisms, are_isomorphic, spanned_subtree, graft,
    enumerate_all_trees, sort_key,
)
from .morphisms import (
    MorphismError, SourceTargetMismatch, NotMonotone, VertexConditionFails,
    NotInnerEdge, TreeMorphism, identity, compose, contract_edge, split_edge,
    collapse_unary, hom_set, GeneratorStep, Factorization, FactorizationError,
    factorize,
)
from .labels import (
    PLUS, LabelError, LabeledTree, canonical_labeling, PointedMap,
    compose_pointed, enumerate_pointed_maps, is_label_preserving, hom_labeled,
)
from .oplax import (
    CategoryError, NotComposable, FcMor, FiniteCategory, discrete_category,
    group_category, FcFunctor, OplaxFunctorData, check_oplax_units,
    check_coherence_square, CoherenceReport, check_all_coherence,
    check_tau_naturality, EquivalenceReport, check_equivalence,
)
from .substitution import (
    phi_star, phi_star_mor, tau_id, tau_comp, iota, GrothTreeMorphism,
    groth_identity, compose_groth, groth_hom, F_functor, lift_morphism,
    pointed_category, tree_oplax_data,
)
from .groups import (
    GroupError, GSetError, FiniteGroup, trivial_group, cyclic_group,
    symmetric_group_3, subgroups, conjugate_subgroup, subgroup_conjugacy_key,
    Orbit, GSet, trivial_gset, coset_gset, disjoint_union_gsets,
    transitive_gsets, skeletal_gsets, equivariant_maps, BUILTIN_GROUPS,
    builtin_group, group_to_json, group_from_json,
)
from .gtrees import (
    NotEquivariant, SiteInvalid, GTree, GLabeledTree,
    is_equivariant_morphism, equivariant_hom, equivariant_isomorphisms,
    are_equivariant_isomorphic, equivariant_contract_orbit,
    equivariant_split_orbit, equivariant_graft_orbit, equivariant_factorize,
    EquivariantPointedMap, enumerate_equivariant_pointed_maps, phi_star_G,
    groth_hom_G, lift_G,
    equivariant_canonical_key, enumerate_gtrees, gset_pointed_category,
    corolla_glabeled, standard_probes, gtree_oplax_data,
    OrbitContractionSample, z4_orbit_contraction_sample,
)
from .forests import (
    ForestError, ActionNotFunctorial, ComponentIsoInvalid, ForestMorphism,
    GForest, is_genuine, is_equivariant_forest_morphism,
    forest_hom, subgroup_group, coset_groupoid, bh_to_coset_groupoid,
    diagram_from_gtree, DiagramMorphism, diagram_hom, RetractiveGSet,
    RetractiveMap, enumerate_retractive_maps, fiber_pointed_map,
    GenuineTree, self_labeled_genuine, phi_star_genuine, GenuineMorphism,
    genuine_hom, eta_morphism, q_star_diagram, q_star_diagram_morphism,
    q_star_retractive, q_star_retractive_map, q_star_genuine,
    q_star_genuine_morphism, q_star_compare, enumerate_genuine_diagrams,
    genuine_equivalence_check,
)

__all__ = [n for n in dir() if not n.startswith("_")]
