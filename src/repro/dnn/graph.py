"""DNN dataflow graph: partitioning as a graph-cut problem (networkx).

Section 6.1 splits a *sequential* network by scanning prefixes, which is
a special case of a general problem: in a DNN dataflow DAG, an
implant/wearable partition is a cut whose crossing edges carry the
activations that must be transmitted.  This module builds that graph for
any :class:`~repro.dnn.network.Network`, annotates nodes with compute cost
and edges with activation size, and solves the partition by enumerating
topological cuts — the exact machinery branching architectures (true
DenseNets, multi-stream decoders) would need, degenerating to the paper's
prefix scan for sequential stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dnn.network import Network

if TYPE_CHECKING:  # networkx loads when a graph is first built or cut
    import networkx as nx

#: Node ids for the synthetic endpoints.
SOURCE = "source"
SINK = "sink"


def build_dataflow_graph(network: Network) -> nx.DiGraph:
    """Dataflow DAG of a network's compute layers.

    Nodes: ``source`` (the NI), one node per compute layer (``layer_i``,
    1-based, with ``macs`` and ``mac_seq``/``mac_ops`` attributes), and
    ``sink`` (the transmitter).  Edges carry ``values`` — the activation
    count that would cross an implant/wearable boundary cutting them.
    """
    import networkx as nx

    graph = nx.DiGraph()
    profiles = network.mac_profiles()
    sizes = network.compute_layer_output_values()
    input_values = 1
    for dim in network.input_shape:
        input_values *= dim

    graph.add_node(SOURCE, macs=0)
    graph.add_node(SINK, macs=0)
    previous = SOURCE
    previous_values = input_values
    for index, (profile, size) in enumerate(zip(profiles, sizes), start=1):
        node = f"layer_{index}"
        graph.add_node(node, macs=profile.total_macs,
                       mac_seq=profile.mac_seq, mac_ops=profile.mac_ops)
        graph.add_edge(previous, node, values=previous_values)
        previous = node
        previous_values = size
    graph.add_edge(previous, SINK, values=previous_values)
    return graph


@dataclass(frozen=True)
class GraphCut:
    """An implant/wearable partition of the dataflow graph.

    Attributes:
        implant_nodes: node ids on the implant side (includes source).
        crossing_values: activation values crossing the cut.
        implant_macs: MAC work retained on the implant.
    """

    implant_nodes: frozenset[str]
    crossing_values: int
    implant_macs: int


def enumerate_cuts(graph: nx.DiGraph) -> list[GraphCut]:
    """All downward-closed cuts of the dataflow DAG.

    A valid partition keeps a *downward-closed* set of nodes on the
    implant (every predecessor of an implant node is also on the
    implant).  For a sequential chain these are exactly the paper's
    prefixes; for a DAG they are the antichains' down-sets, enumerated
    here via topological prefixes of every linear extension — which for
    the class of graphs we build (series chains, and small fan-out
    blocks) is tractable and exact.
    """
    import networkx as nx

    order = list(nx.topological_sort(graph))
    cuts = []
    seen: set[frozenset[str]] = set()
    # Grow downward-closed sets by adding nodes whose predecessors are in.
    frontier = [frozenset({SOURCE})]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        if SINK not in current:
            cuts.append(_cut_from_set(graph, current))
        for node in order:
            if node in current:
                continue
            if all(pred in current for pred in graph.predecessors(node)):
                candidate = current | {node}
                if candidate not in seen and SINK not in candidate:
                    frontier.append(candidate)
    return cuts


def _cut_from_set(graph: nx.DiGraph,
                  implant_nodes: frozenset[str]) -> GraphCut:
    crossing = sum(data["values"]
                   for u, v, data in graph.edges(data=True)
                   if u in implant_nodes and v not in implant_nodes)
    macs = sum(graph.nodes[node]["macs"] for node in implant_nodes)
    return GraphCut(implant_nodes=implant_nodes,
                    crossing_values=crossing, implant_macs=macs)


def best_cut(graph: nx.DiGraph, max_values: int = 1024) -> GraphCut:
    """Minimum-implant-MACs cut whose crossing traffic fits the budget.

    This is the graph generalization of Section 6.1's rule: among cuts
    with ``crossing_values <= max_values``, keep the least compute on the
    implant.  Falls back to the full-on-implant cut (crossing = final
    outputs) when no admissible interior cut exists — that cut always
    qualifies if the final output fits, mirroring the DN-CNN case.

    Raises:
        ValueError: if not even the full network's output fits the budget.
    """
    cuts = enumerate_cuts(graph)
    admissible = [cut for cut in cuts if cut.crossing_values <= max_values]
    if not admissible:
        raise ValueError(
            f"no cut transmits <= {max_values} values — even the final "
            "output exceeds the transmission budget")
    return min(admissible, key=lambda cut: cut.implant_macs)


def prefix_cut_equivalence(network: Network,
                           max_values: int = 1024) -> tuple[int | None, int]:
    """Cross-check the graph cut against the sequential prefix scan.

    Returns:
        (equivalent prefix index or None for source-only/full,
         implant MACs of the best cut).
    """
    graph = build_dataflow_graph(network)
    cut = best_cut(graph, max_values)
    layer_ids = sorted(
        (int(node.split("_")[1]) for node in cut.implant_nodes
         if node.startswith("layer_")))
    prefix = layer_ids[-1] if layer_ids else None
    return prefix, cut.implant_macs
