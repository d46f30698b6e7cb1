//! Socket topology description for NUMA-aware policies (paper §IV-C).
//!
//! The paper's NUMA extension changes *victim selection*: an idle thread
//! prefers stealing from (or migrating to queues of) threads on its own
//! socket, falling back to remote sockets only when the local ones are
//! exhausted. [`Topology`] captures the worker→socket map and produces
//! the preference-ordered victim sequence; the work-stealing BFS variants
//! consume it as a pluggable policy.

use obfs_util::Xoshiro256StarStar;

/// Maps worker ids to sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `socket_of[tid]` = socket index of worker `tid`.
    socket_of: Vec<usize>,
    sockets: usize,
}

impl Topology {
    /// Single-socket topology: every worker is local to every other (the
    /// default; NUMA preference degenerates to uniform random choice).
    pub fn uniform(threads: usize) -> Self {
        assert!(threads >= 1);
        Self { socket_of: vec![0; threads], sockets: 1 }
    }

    /// `sockets` sockets with `threads` workers distributed round-robin
    /// blocks: worker `t` sits on socket `t / ceil(threads/sockets)`.
    pub fn blocked(threads: usize, sockets: usize) -> Self {
        assert!(threads >= 1 && sockets >= 1);
        let per = obfs_util::div_ceil(threads, sockets);
        let socket_of: Vec<usize> = (0..threads).map(|t| t / per).collect();
        let sockets = socket_of.last().map_or(1, |&s| s + 1);
        Self { socket_of, sockets }
    }

    /// Explicit worker→socket assignment.
    pub fn explicit(socket_of: Vec<usize>) -> Self {
        assert!(!socket_of.is_empty());
        let sockets = socket_of.iter().max().unwrap() + 1;
        Self { socket_of, sockets }
    }

    /// Number of workers described.
    pub fn threads(&self) -> usize {
        self.socket_of.len()
    }

    /// Number of sockets described.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Socket index of worker `tid`.
    pub fn socket_of(&self, tid: usize) -> usize {
        self.socket_of[tid]
    }

    /// Whether two workers share a socket.
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.socket_of[a] == self.socket_of[b]
    }

    /// A uniformly random victim != thief (the paper's non-NUMA policy).
    /// Returns `None` for a single-worker topology.
    pub fn random_victim(&self, thief: usize, rng: &mut Xoshiro256StarStar) -> Option<usize> {
        let p = self.threads();
        if p <= 1 {
            return None;
        }
        let mut v = rng.below_usize(p - 1);
        if v >= thief {
            v += 1;
        }
        Some(v)
    }

    /// Socket-preferring random victim: with probability `local_bias`
    /// pick a random same-socket peer (if any), otherwise uniform remote.
    pub fn numa_victim(
        &self,
        thief: usize,
        local_bias: f64,
        rng: &mut Xoshiro256StarStar,
    ) -> Option<usize> {
        let locals: Vec<usize> =
            (0..self.threads()).filter(|&t| t != thief && self.same_socket(thief, t)).collect();
        if !locals.is_empty() && rng.chance(local_bias) {
            return Some(locals[rng.below_usize(locals.len())]);
        }
        self.random_victim(thief, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_one_socket() {
        let t = Topology::uniform(8);
        assert_eq!(t.sockets(), 1);
        assert!(t.same_socket(0, 7));
    }

    #[test]
    fn blocked_layout() {
        // 12 threads over 2 sockets -> 6 per socket (Lonestar node shape).
        let t = Topology::blocked(12, 2);
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(5), 0);
        assert_eq!(t.socket_of(6), 1);
        assert!(!t.same_socket(5, 6));
    }

    #[test]
    fn blocked_uneven() {
        let t = Topology::blocked(5, 2); // per = 3 -> sockets 0,0,0,1,1
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.socket_of(2), 0);
        assert_eq!(t.socket_of(3), 1);
    }

    #[test]
    fn random_victim_never_self_and_covers_all() {
        let t = Topology::uniform(4);
        let mut rng = Xoshiro256StarStar::new(2);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let v = t.random_victim(2, &mut rng).unwrap();
            assert_ne!(v, 2);
            seen[v] = true;
        }
        assert!(seen[0] && seen[1] && seen[3]);
        assert!(!seen[2]);
    }

    #[test]
    fn random_victim_single_thread_none() {
        let t = Topology::uniform(1);
        let mut rng = Xoshiro256StarStar::new(3);
        assert_eq!(t.random_victim(0, &mut rng), None);
    }

    #[test]
    fn numa_victim_bias() {
        let t = Topology::blocked(8, 2);
        let mut rng = Xoshiro256StarStar::new(4);
        let mut local_hits = 0;
        const N: usize = 2000;
        for _ in 0..N {
            let v = t.numa_victim(0, 0.9, &mut rng).unwrap();
            if t.same_socket(0, v) {
                local_hits += 1;
            }
        }
        // 0.9 bias + (0.1 * 3/7 remote-path-local): expect > 85% local.
        assert!(local_hits as f64 > 0.85 * N as f64, "only {local_hits}/{N} local");
    }

    #[test]
    fn explicit_assignment() {
        let t = Topology::explicit(vec![0, 1, 0, 1]);
        assert_eq!(t.sockets(), 2);
        assert!(t.same_socket(0, 2));
        assert!(!t.same_socket(0, 1));
    }
}
