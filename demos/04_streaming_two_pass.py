# Estimating triangles from an edge stream in two passes.
#
# Pass 1 marks the neighborhoods of the sampled vertices in one bit row
# per vertex, a bit per distinct sampled vertex; pass 2 counts, for every
# stream edge, the sampled vertices adjacent to both endpoints: the bits
# set in both endpoints' rows.  If the vertex count is unknown an extra
# counting pass runs first.  State is n * ceil(d/8) + 8 s bytes for d
# distinct sampled vertices (a bit row per vertex and a tally per sample)
# and the result is bit-identical to the in-memory "qopt-uniform"
# estimator under the same seed.

from trisample import Graph, MemoryEdgeStream, estimate, stream_estimate

edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
paw = Graph.from_edges(edges)

source = MemoryEdgeStream(edges)
run = stream_estimate(source, s=64, seed=7, n=4)
print("estimate:", run.estimate.value)
print("passes used:", run.passes_used)
d = len(set(run.state.sampled))  # at most n = 4 of the s = 64 slots are distinct
print("state bytes:", run.state.state_bytes, "= n * ceil(d/8) + 8 s =", 4 * ((d + 7) // 8) + 8 * 64)

# Without n, a counting pass runs first.
run3 = stream_estimate(MemoryEdgeStream(edges), s=64, seed=7)
print("passes without n:", run3.passes_used)

# Same seed, same substreams, same arithmetic: the in-memory estimator
# produces the identical result.
mem = estimate(paw, "qopt-uniform", s=64, seed=7)
print("in-memory value :", mem.value)
print("bit-identical   :", run.estimate == mem)
