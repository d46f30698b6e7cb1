//! Result validation helpers used by tests, examples and the bench
//! harness (every benchmarked run is validated against serial BFS once
//! per graph/source pair).

use crate::{BfsResult, UNVISITED};
use obfs_graph::{CsrGraph, VertexId, INVALID_VERTEX};

/// Errors a BFS result can exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// `levels[v]` differs from the reference.
    LevelMismatch {
        /// Offending vertex.
        vertex: VertexId,
        /// Level the result assigned.
        got: u32,
        /// Level the reference assigns.
        expected: u32,
    },
    /// Source level is not 0.
    BadSource {
        /// The source vertex.
        src: VertexId,
        /// Its (wrong) level.
        level: u32,
    },
    /// A parent entry is inconsistent with the level array or the graph.
    BadParent {
        /// Offending vertex.
        vertex: VertexId,
        /// Its recorded parent.
        parent: VertexId,
        /// Which invariant broke.
        reason: &'static str,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::LevelMismatch { vertex, got, expected } => {
                write!(f, "level[{vertex}] = {got}, expected {expected}")
            }
            ValidationError::BadSource { src, level } => {
                write!(f, "source {src} has level {level}, expected 0")
            }
            ValidationError::BadParent { vertex, parent, reason } => {
                write!(f, "parent[{vertex}] = {parent}: {reason}")
            }
        }
    }
}

/// Compare a result against reference levels (e.g. from
/// [`crate::serial::serial_bfs`]). Returns the first mismatch.
pub fn check_levels(result: &BfsResult, reference: &[u32]) -> Result<(), ValidationError> {
    assert_eq!(result.levels.len(), reference.len(), "vertex count mismatch");
    for (v, (&got, &expected)) in result.levels.iter().zip(reference).enumerate() {
        if got != expected {
            return Err(ValidationError::LevelMismatch { vertex: v as VertexId, got, expected });
        }
    }
    Ok(())
}

/// Validate a result *intrinsically* (without a reference): source at
/// level 0, and every parent entry consistent — parent reached one level
/// earlier via a real edge. This certifies any BFS tree, independent of
/// which of the many valid trees the nondeterministic run produced.
pub fn check_self_consistent(
    graph: &CsrGraph,
    src: VertexId,
    result: &BfsResult,
) -> Result<(), ValidationError> {
    if result.levels[src as usize] != 0 {
        return Err(ValidationError::BadSource { src, level: result.levels[src as usize] });
    }
    if let Some(parents) = &result.parents {
        // v is the vertex id itself, not just an index into the arrays.
        #[allow(clippy::needless_range_loop)]
        for v in 0..graph.num_vertices() {
            let lv = result.levels[v];
            let p = parents[v];
            if lv == UNVISITED {
                if p != INVALID_VERTEX {
                    return Err(ValidationError::BadParent {
                        vertex: v as VertexId,
                        parent: p,
                        reason: "unreached vertex has a parent",
                    });
                }
                continue;
            }
            if v as VertexId == src {
                if p != src {
                    return Err(ValidationError::BadParent {
                        vertex: v as VertexId,
                        parent: p,
                        reason: "source must be its own parent",
                    });
                }
                continue;
            }
            if p == INVALID_VERTEX {
                return Err(ValidationError::BadParent {
                    vertex: v as VertexId,
                    parent: p,
                    reason: "reached vertex lacks a parent",
                });
            }
            if result.levels[p as usize] + 1 != lv {
                return Err(ValidationError::BadParent {
                    vertex: v as VertexId,
                    parent: p,
                    reason: "parent not exactly one level shallower",
                });
            }
            if !graph.neighbors(p).contains(&(v as VertexId)) {
                return Err(ValidationError::BadParent {
                    vertex: v as VertexId,
                    parent: p,
                    reason: "no edge from parent to vertex",
                });
            }
        }
    }
    Ok(())
}

/// Validate a *partial* result (a cancelled or deadline-exceeded run,
/// whose `stats.outcome` is not [`crate::Outcome::is_complete`]) against
/// reference levels — the partial-state contract of DESIGN.md §10:
///
/// * every labeled vertex carries its **exact** BFS distance (level-`d`
///   labels are only ever written while consuming level `d-1`, whose
///   frontier holds exactly the distance-`d-1` vertices, so even a
///   racy duplicate write stores the same value);
/// * labeling is **complete** for every distance below
///   `result.stats.levels` (those levels' predecessors were fully
///   consumed before the abort barrier);
/// * any recorded parents are self-consistent (the parent store follows
///   the level store on the same thread, so a labeled vertex never has
///   a missing or torn parent).
///
/// Also holds for complete runs, where it degenerates to
/// [`check_levels`] + [`check_self_consistent`].
pub fn check_partial(
    graph: &CsrGraph,
    src: VertexId,
    result: &BfsResult,
    reference: &[u32],
) -> Result<(), ValidationError> {
    assert_eq!(result.levels.len(), reference.len(), "vertex count mismatch");
    let consumed = result.stats.levels;
    for (v, (&got, &expected)) in result.levels.iter().zip(reference).enumerate() {
        let missing = got == UNVISITED && expected != UNVISITED && expected < consumed;
        if (got != UNVISITED && got != expected) || missing {
            return Err(ValidationError::LevelMismatch { vertex: v as VertexId, got, expected });
        }
    }
    check_self_consistent(graph, src, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Algorithm, BfsOptions};
    use crate::run_bfs;
    use crate::serial::serial_bfs;
    use crate::Outcome;
    use obfs_graph::gen;

    #[test]
    fn check_levels_catches_mismatch() {
        let g = gen::path(5);
        let mut r = serial_bfs(&g, 0);
        assert!(check_levels(&r, &[0, 1, 2, 3, 4]).is_ok());
        r.levels[3] = 9;
        let err = check_levels(&r, &[0, 1, 2, 3, 4]).unwrap_err();
        assert!(matches!(err, ValidationError::LevelMismatch { vertex: 3, got: 9, expected: 3 }));
    }

    #[test]
    fn parallel_parents_self_consistent() {
        let g = gen::barabasi_albert(600, 3, 7);
        let opts = BfsOptions { threads: 4, record_parents: true, ..Default::default() };
        for algo in [Algorithm::Bfscl, Algorithm::Bfswl, Algorithm::Bfswsl, Algorithm::EdgeCl] {
            let r = run_bfs(algo, &g, 0, &opts);
            check_self_consistent(&g, 0, &r)
                .unwrap_or_else(|e| panic!("{algo}: invalid BFS tree: {e}"));
        }
    }

    #[test]
    fn self_consistency_catches_bad_parent() {
        let g = gen::path(4);
        let opts = BfsOptions { record_parents: true, ..Default::default() };
        let mut r = crate::serial::serial_bfs_with_opts(&g, 0, &opts);
        assert!(check_self_consistent(&g, 0, &r).is_ok());
        r.parents.as_mut().unwrap()[3] = 0; // 0 is not adjacent to 3
        let err = check_self_consistent(&g, 0, &r).unwrap_err();
        assert!(matches!(err, ValidationError::BadParent { vertex: 3, .. }));
    }

    #[test]
    fn self_consistency_catches_bad_source() {
        let g = gen::path(3);
        let mut r = serial_bfs(&g, 0);
        r.levels[0] = 5;
        assert!(matches!(check_self_consistent(&g, 0, &r), Err(ValidationError::BadSource { .. })));
    }

    #[test]
    fn check_partial_enforces_the_contract() {
        let g = gen::path(6);
        let reference = serial_bfs(&g, 0).levels.clone();
        let mut r = serial_bfs(&g, 0);
        // Simulate an abort at the end of level 3: distances 0..=3 fully
        // labeled, the partially-consumed level may have labeled 4 too.
        r.stats.levels = 4;
        r.stats.outcome = Outcome::Cancelled;
        r.levels[5] = UNVISITED; // beyond the completed prefix: fine
        assert!(check_partial(&g, 0, &r, &reference).is_ok());
        // A labeled vertex must carry its exact distance...
        let mut bad = r.clone();
        bad.levels[4] = 7;
        assert!(matches!(
            check_partial(&g, 0, &bad, &reference),
            Err(ValidationError::LevelMismatch { vertex: 4, got: 7, expected: 4 })
        ));
        // ... and coverage through the completed levels is mandatory.
        let mut hole = r.clone();
        hole.levels[2] = UNVISITED;
        assert!(matches!(
            check_partial(&g, 0, &hole, &reference),
            Err(ValidationError::LevelMismatch { vertex: 2, .. })
        ));
        // A complete run passes as-is.
        let full = serial_bfs(&g, 0);
        assert!(check_partial(&g, 0, &full, &reference).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidationError::LevelMismatch { vertex: 7, got: 2, expected: 3 };
        assert_eq!(e.to_string(), "level[7] = 2, expected 3");
    }
}
