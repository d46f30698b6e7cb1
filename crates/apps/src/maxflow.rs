//! Edmonds–Karp maximum flow: BFS-driven augmenting paths on a residual
//! network (the "max-flow computation" building block of the paper's §I).

use obfs_graph::VertexId;

/// A capacitated flow network with explicit residual arcs.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Arc target vertex.
    to: Vec<VertexId>,
    /// Residual capacity of each arc. Arc `2i+1` is the reverse of `2i`.
    cap: Vec<i64>,
    /// Per-vertex arc index lists.
    adj: Vec<Vec<u32>>,
}

impl FlowNetwork {
    /// An empty network on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { to: Vec::new(), cap: Vec::new(), adj: vec![Vec::new(); n] }
    }

    /// Vertex count of the network.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Add a directed arc `u -> v` with capacity `cap >= 0` (its residual
    /// reverse arc starts at 0).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, cap: i64) {
        assert!(cap >= 0, "negative capacity");
        assert!((u as usize) < self.adj.len() && (v as usize) < self.adj.len());
        let idx = self.to.len() as u32;
        self.to.push(v);
        self.cap.push(cap);
        self.to.push(u);
        self.cap.push(0);
        self.adj[u as usize].push(idx);
        self.adj[v as usize].push(idx + 1);
    }

    /// Current residual capacity of the `i`-th added forward arc.
    pub fn residual(&self, i: usize) -> i64 {
        self.cap[2 * i]
    }

    /// Flow currently routed on the `i`-th added forward arc.
    pub fn flow(&self, i: usize) -> i64 {
        self.cap[2 * i + 1]
    }
}

/// Edmonds–Karp: repeatedly find a shortest augmenting path by BFS on the
/// residual network and saturate it. Mutates the network's residual
/// capacities; returns the max-flow value.
///
/// O(V · E²) worst case; the BFS here is the serial reference (flow
/// networks in the paper's motivating applications are preprocessing-
/// scale, and the residual graph changes every iteration, which defeats
/// the static-CSR parallel traversals).
pub fn max_flow(net: &mut FlowNetwork, s: VertexId, t: VertexId) -> i64 {
    let n = net.num_vertices();
    assert!((s as usize) < n && (t as usize) < n, "terminal out of range");
    assert_ne!(s, t, "source equals sink");
    let mut total = 0i64;
    let mut pred_arc = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    loop {
        // --- BFS for the shortest augmenting path ---
        for p in pred_arc.iter_mut() {
            *p = u32::MAX;
        }
        queue.clear();
        queue.push_back(s);
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for &a in &net.adj[u as usize] {
                let v = net.to[a as usize];
                if net.cap[a as usize] > 0 && pred_arc[v as usize] == u32::MAX && v != s {
                    pred_arc[v as usize] = a;
                    if v == t {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !found {
            return total;
        }
        // --- bottleneck along the path ---
        let mut bottleneck = i64::MAX;
        let mut v = t;
        while v != s {
            let a = pred_arc[v as usize] as usize;
            bottleneck = bottleneck.min(net.cap[a]);
            v = net.to[a ^ 1];
        }
        // --- augment ---
        let mut v = t;
        while v != s {
            let a = pred_arc[v as usize] as usize;
            net.cap[a] -= bottleneck;
            net.cap[a ^ 1] += bottleneck;
            v = net.to[a ^ 1];
        }
        total += bottleneck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 7);
        assert_eq!(max_flow(&mut net, 0, 1), 7);
        assert_eq!(net.flow(0), 7);
        assert_eq!(net.residual(0), 0);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.1 network: max flow 23.
        let mut net = FlowNetwork::new(6);
        let (s, v1, v2, v3, v4, t) = (0, 1, 2, 3, 4, 5);
        net.add_edge(s, v1, 16);
        net.add_edge(s, v2, 13);
        net.add_edge(v1, v3, 12);
        net.add_edge(v2, v1, 4);
        net.add_edge(v2, v4, 14);
        net.add_edge(v3, v2, 9);
        net.add_edge(v3, t, 20);
        net.add_edge(v4, v3, 7);
        net.add_edge(v4, t, 4);
        assert_eq!(max_flow(&mut net, s, t), 23);
    }

    #[test]
    fn parallel_paths_sum() {
        // Two disjoint unit paths s->a->t and s->b->t.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(max_flow(&mut net, 0, 3), 2);
    }

    #[test]
    fn bottleneck_limits_flow() {
        // s -> a (100) -> t (1): flow 1.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 100);
        net.add_edge(1, 2, 1);
        assert_eq!(max_flow(&mut net, 0, 2), 1);
    }

    #[test]
    fn requires_residual_back_edges() {
        // The classic case where a greedy path must be partially undone:
        //   s->a:1, s->b:1, a->b:1, a->t:1, b->t:1 ... max flow 2 but a
        //   first path s->a->b->t forces flow back over a->b.
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 1);
        net.add_edge(s, b, 1);
        net.add_edge(a, b, 1);
        net.add_edge(a, t, 1);
        net.add_edge(b, t, 1);
        assert_eq!(max_flow(&mut net, s, t), 2);
    }

    #[test]
    fn disconnected_sink_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5);
        assert_eq!(max_flow(&mut net, 0, 3), 0);
    }

    #[test]
    fn flow_conservation_holds() {
        let mut net = FlowNetwork::new(5);
        let arcs = [
            (0u32, 1u32, 10i64),
            (0, 2, 5),
            (1, 2, 15),
            (1, 3, 9),
            (2, 3, 10),
            (3, 4, 12),
            (2, 4, 3),
        ];
        for &(u, v, c) in &arcs {
            net.add_edge(u, v, c);
        }
        let f = max_flow(&mut net, 0, 4);
        assert!(f > 0);
        // Net flow into each internal vertex is zero.
        let mut balance = [0i64; 5];
        for (i, &(u, v, _)) in arcs.iter().enumerate() {
            let fl = net.flow(i);
            balance[u as usize] -= fl;
            balance[v as usize] += fl;
        }
        assert_eq!(balance[0], -f);
        assert_eq!(balance[4], f);
        #[allow(clippy::needless_range_loop)] // v is the vertex id in the message
        for v in 1..4 {
            assert_eq!(balance[v], 0, "conservation violated at {v}");
        }
    }

    #[test]
    #[should_panic(expected = "source equals sink")]
    fn same_terminals_rejected() {
        let mut net = FlowNetwork::new(2);
        let _ = max_flow(&mut net, 1, 1);
    }
}
