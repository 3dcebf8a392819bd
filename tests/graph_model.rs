//! Model-based check of `DynamicGraph` against a `BTreeSet<(u32, u32)>`
//! oracle. The graph keeps no edge index, so every lookup by vertex pair
//! (`has_edge`, `edge_handle`, the duplicate check on insertion, and
//! `remove_edge`) is a scan of the shorter adjacency list; this test is
//! what holds those scans to the edge set the operations imply.

use dynamis::gen::powerlaw::chung_lu;
use dynamis::{DynamicGraph, GraphError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Vertices `0..HUBS` take part in about half of all edge operations, so
/// they reach high degree and hub–hub pairs get looked up often.
const HUBS: u32 = 4;

struct Model {
    g: DynamicGraph,
    edges: BTreeSet<(u32, u32)>,
    alive: Vec<bool>,
}

fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

impl Model {
    fn new(n: usize) -> Self {
        let mut g = DynamicGraph::new();
        g.add_vertices(n);
        Model {
            g,
            edges: BTreeSet::new(),
            alive: vec![true; n],
        }
    }

    fn is_alive(&self, v: u32) -> bool {
        self.alive.get(v as usize).copied().unwrap_or(false)
    }

    /// A vertex id: a hub, any slot, or one past the end (out of range).
    fn pick(&self, rng: &mut SmallRng) -> u32 {
        match rng.gen_range(0..10u32) {
            0..=3 => rng.gen_range(0..HUBS),
            4 => self.alive.len() as u32 + rng.gen_range(0..3u32),
            _ => rng.gen_range(0..self.alive.len() as u32),
        }
    }

    fn insert(&mut self, u: u32, v: u32) {
        let got = self.g.insert_edge(u, v);
        let want = if u == v {
            Err(GraphError::SelfLoop(u))
        } else if !self.is_alive(u) {
            Err(GraphError::VertexNotFound(u))
        } else if !self.is_alive(v) {
            Err(GraphError::VertexNotFound(v))
        } else {
            Ok(self.edges.insert(key(u, v)))
        };
        assert_eq!(got, want, "insert_edge({u}, {v})");
    }

    fn remove(&mut self, u: u32, v: u32) {
        let got = self.g.remove_edge(u, v);
        let want = if u == v {
            Err(GraphError::SelfLoop(u))
        } else if !self.is_alive(u) {
            Err(GraphError::VertexNotFound(u))
        } else if !self.is_alive(v) {
            Err(GraphError::VertexNotFound(v))
        } else {
            Ok(self.edges.remove(&key(u, v)))
        };
        assert_eq!(got, want, "remove_edge({u}, {v})");
    }

    fn remove_vertex(&mut self, v: u32) {
        let got = self.g.remove_vertex(v).map(|mut former| {
            former.sort_unstable();
            former
        });
        if !self.is_alive(v) {
            assert_eq!(got, Err(GraphError::VertexNotFound(v)));
            return;
        }
        let incident: Vec<(u32, u32)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(a, b)| a == v || b == v)
            .collect();
        let mut former: Vec<u32> = incident
            .iter()
            .map(|&(a, b)| if a == v { b } else { a })
            .collect();
        former.sort_unstable();
        for e in &incident {
            self.edges.remove(e);
        }
        self.alive[v as usize] = false;
        assert_eq!(got, Ok(former), "remove_vertex({v})");
    }

    fn add_vertex(&mut self) {
        let v = self.g.add_vertex();
        if v as usize == self.alive.len() {
            self.alive.push(true);
        } else {
            assert!(!self.alive[v as usize], "recycled a live id {v}");
            self.alive[v as usize] = true;
        }
    }

    /// Toggles the mark on a random half-edge of `v`.
    fn toggle_mark(&mut self, v: u32, rng: &mut SmallRng) {
        let d = self.g.degree(v);
        if d == 0 {
            return;
        }
        let pos = rng.gen_range(0..d as u32);
        if self.g.is_marked(v, pos) {
            self.g.unmark_neighbor(v, pos);
        } else {
            self.g.mark_neighbor(v, pos);
        }
    }

    /// Every pair lookup agrees with the oracle, in both argument orders,
    /// and a found handle's positions name the other endpoint.
    fn check_pair(&self, u: u32, v: u32) {
        let want = u != v && self.edges.contains(&key(u, v));
        assert_eq!(self.g.has_edge(u, v), want, "has_edge({u}, {v})");
        assert_eq!(self.g.has_edge(v, u), want, "has_edge({v}, {u})");
        for (a, b) in [(u, v), (v, u)] {
            match self.g.edge_handle(a, b) {
                Some(h) => {
                    assert!(want, "edge_handle({a}, {b}) found a missing edge");
                    assert_eq!((h.u, h.v), (a, b));
                    assert_eq!(self.g.neighbor_at(a, h.pos_u as usize), b);
                    assert_eq!(self.g.neighbor_at(b, h.pos_v as usize), a);
                }
                None => assert!(!want, "edge_handle({a}, {b}) missed an edge"),
            }
        }
    }

    /// Whole-graph agreement: edge count, `edges()` (each edge once,
    /// `u < v`), every oracle edge resolvable, and internal consistency.
    fn check_all(&self) {
        assert_eq!(self.g.num_edges(), self.edges.len());
        let listed: Vec<(u32, u32)> = self.g.edges().collect();
        assert!(listed.iter().all(|&(u, v)| u < v), "edges() yields u < v");
        let as_set: BTreeSet<(u32, u32)> = listed.iter().copied().collect();
        assert_eq!(as_set.len(), listed.len(), "edges() repeats an edge");
        assert_eq!(as_set, self.edges);
        for &(u, v) in &self.edges {
            self.check_pair(u, v);
        }
        for a in 0..HUBS {
            for b in 0..HUBS {
                self.check_pair(a, b);
            }
        }
        self.g.check_consistency().unwrap();
    }
}

fn run(seed: u64, n: usize, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = Model::new(n);
    for step in 0..steps {
        match rng.gen_range(0..100u32) {
            0..=44 => {
                let (u, v) = (m.pick(&mut rng), m.pick(&mut rng));
                m.insert(u, v);
            }
            45..=64 => {
                let (u, v) = (m.pick(&mut rng), m.pick(&mut rng));
                m.remove(u, v);
            }
            65..=74 => {
                // Remove an edge known to exist, through a handle.
                if let Some(&(u, v)) = m.edges.iter().nth(rng.gen_range(0..m.edges.len().max(1))) {
                    let h = m.g.edge_handle(v, u).expect("oracle edge resolves");
                    m.g.remove_edge_at(h);
                    m.edges.remove(&(u, v));
                }
            }
            75..=78 => {
                // Hubs die rarely, so hub–hub pairs stay dense.
                let v = m.pick(&mut rng);
                if v >= HUBS || rng.gen_range(0..8u32) == 0 {
                    m.remove_vertex(v);
                }
            }
            79..=82 => m.add_vertex(),
            _ => {
                let v = m.pick(&mut rng);
                if m.is_alive(v) {
                    m.toggle_mark(v, &mut rng);
                }
            }
        }
        let (u, v) = (m.pick(&mut rng), m.pick(&mut rng));
        m.check_pair(u, v);
        if step % 97 == 0 {
            m.check_all();
        }
    }
    m.check_all();
}

#[test]
fn graph_matches_edge_set_oracle() {
    for seed in 0..6 {
        run(seed, 48, 3_000);
    }
}

#[test]
fn dense_hubs_match_edge_set_oracle() {
    // Few vertices: hubs become adjacent to most of the graph, so lookups
    // scan long lists and both sides of the degree comparison get taken.
    for seed in 100..104 {
        run(seed, 12, 2_000);
    }
}

/// Without an edge index the graph stores 2 × 12 B of adjacency per edge;
/// per-vertex headers and capacity slack bring it to ≈ 47 B on this
/// graph. A pair-hash edge index, at 28–45 B per edge depending on table
/// fill, would push it past the bound.
#[test]
fn heap_per_edge_stays_compact() {
    let g = chung_lu(50_000, 2.4, 8.0, 1);
    let per_edge = g.heap_bytes() / g.num_edges();
    assert!(
        per_edge <= 64,
        "heap_bytes / num_edges = {per_edge} B, expected ≤ 64"
    );
}
