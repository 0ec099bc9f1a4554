"""Merge on workspaces: non-planar binary forests, coproducts, costs, coloring, Markov dynamics."""

from mergespace.forest import (
    Leaf,
    Node,
    SyntaxTree,
    Workspace,
    leaf,
    node,
    trace_leaf,
    accessible_terms,
    enumerate_forests,
    enumerate_trees,
    workspace,
)

__all__ = [
    "Leaf",
    "Node",
    "SyntaxTree",
    "Workspace",
    "leaf",
    "node",
    "trace_leaf",
    "accessible_terms",
    "enumerate_forests",
    "enumerate_trees",
    "workspace",
]
