package core

// SCCs computes the strongly connected components of a directed graph
// given as an adjacency map (edges to unknown vertices are ignored) and
// returns them in reverse topological order of the condensation: every
// component appears before any component that has an edge into it. For a
// call graph with edges caller→callee this means callees come first, so a
// left-to-right walk sees each function's (transitive) callees — and
// hence their interprocedural summaries — before the function itself.
//
// Keys are iterated in the order given by order (any vertices missing
// from order are appended in map order), so the result is deterministic
// when order covers the graph.
func SCCs(adj map[string][]string, order []string) [][]string {
	verts := make([]string, 0, len(adj))
	seenV := make(map[string]bool, len(adj))
	for _, v := range order {
		if _, ok := adj[v]; ok && !seenV[v] {
			seenV[v] = true
			verts = append(verts, v)
		}
	}
	for v := range adj {
		if !seenV[v] {
			verts = append(verts, v)
		}
	}

	// Tarjan's algorithm, iterative to survive deep call chains.
	index := make(map[string]int, len(verts))
	low := make(map[string]int, len(verts))
	onStack := make(map[string]bool, len(verts))
	var stack []string
	var comps [][]string
	next := 0

	type frame struct {
		v  string
		ei int
	}
	for _, root := range verts {
		if _, visited := index[root]; visited {
			continue
		}
		frames := []frame{{v: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			edges := adj[f.v]
			advanced := false
			for f.ei < len(edges) {
				w := edges[f.ei]
				f.ei++
				if _, ok := adj[w]; !ok {
					continue // edge out of the graph (intrinsic, undefined)
				}
				if _, visited := index[w]; !visited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.v is finished.
			if low[f.v] == index[f.v] {
				var comp []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				comps = append(comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[f.v] < low[parent.v] {
					low[parent.v] = low[f.v]
				}
			}
		}
	}
	return comps
}
