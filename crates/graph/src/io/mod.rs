//! Graph serialization: Matrix Market, text edge lists, binary CSR.
//!
//! Matrix Market is the format of the Florida Sparse Matrix Collection
//! graphs the paper evaluates on (cage15, wikipedia-2007, ...), so the
//! original inputs can be used verbatim when available. The binary CSR
//! format is our own cache format for large generated workloads.

pub mod edgelist;
pub mod matrix_market;

pub use edgelist::{read_edge_list, write_edge_list};
pub use matrix_market::{read_matrix_market, write_matrix_market};

use crate::CsrGraph;
use std::io::{self, Read, Write};

const BINARY_MAGIC: &[u8; 8] = b"OBFSCSR1";

/// Write a graph in the compact binary CSR format:
/// magic, n (u64 LE), m (u64 LE), offsets (n+1 x u64 LE), targets (m x u32 LE).
pub fn write_binary_csr<W: Write>(w: &mut W, g: &CsrGraph) -> io::Result<()> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&g.num_edges().to_le_bytes())?;
    for &o in g.offsets_raw() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &t in g.targets_raw() {
        w.write_all(&t.to_le_bytes())?;
    }
    Ok(())
}

/// Read a graph previously written with [`write_binary_csr`].
///
/// The header is untrusted: `n` and `m` are checked before use, arrays
/// grow only as their bytes actually arrive (a lying header cannot force
/// a huge allocation), and any structural inconsistency is an
/// [`io::ErrorKind::InvalidData`] error rather than a panic. A body
/// shorter than the header promises is an `UnexpectedEof` error.
pub fn read_binary_csr<R: Read>(r: &mut R) -> io::Result<CsrGraph> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(invalid("bad OBFSCSR1 magic".into()));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8);
    r.read_exact(&mut buf8)?;
    let m = u64::from_le_bytes(buf8);
    if n > u64::from(crate::VertexId::MAX) {
        return Err(invalid(format!("vertex count {n} exceeds u32 id space")));
    }
    // `n + 1` cannot overflow u64 after the check above.
    let offset_count =
        usize::try_from(n + 1).map_err(|_| invalid(format!("vertex count {n} too large")))?;
    let m = usize::try_from(m).map_err(|_| invalid(format!("edge count {m} too large")))?;
    let offsets = read_le_words(r, offset_count, u64::from_le_bytes)?;
    if offsets.last() != Some(&(m as u64)) {
        return Err(invalid(format!("last offset does not match the edge count {m}")));
    }
    let targets = read_le_words(r, m, u32::from_le_bytes)?;
    CsrGraph::try_from_raw(offsets, targets).map_err(invalid)
}

/// Read `count` little-endian `W`-byte words in bounded chunks, so the
/// output grows with the bytes actually read rather than with `count`.
fn read_le_words<R: Read, T, const W: usize>(
    r: &mut R,
    count: usize,
    decode: fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    const CHUNK_WORDS: usize = 8192;
    let mut out = Vec::new();
    let mut chunk = vec![0u8; CHUNK_WORDS * W];
    let mut left = count;
    while left > 0 {
        let bytes = &mut chunk[..left.min(CHUNK_WORDS) * W];
        r.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(W).map(|w| decode(w.try_into().expect("W-byte chunk"))));
        left -= bytes.len() / W;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn binary_roundtrip() {
        let g = gen::erdos_renyi(200, 1000, 3);
        let mut buf = Vec::new();
        write_binary_csr(&mut buf, &g).unwrap();
        let back = read_binary_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary_csr(&mut buf, &gen::path(4)).unwrap();
        buf[0] = b'X';
        assert!(read_binary_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary_csr(&mut buf, &gen::cycle(10)).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary_csr(&mut buf.as_slice()).is_err());
    }

    /// A header claiming `n`/`m` with the body that follows.
    fn with_header(n: u64, m: u64, body: &[u64]) -> Vec<u8> {
        let mut buf = BINARY_MAGIC.to_vec();
        for w in [n, m].iter().chain(body) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    #[test]
    fn binary_rejects_max_vertex_count() {
        let e = read_binary_csr(&mut with_header(u64::MAX, 0, &[0]).as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("vertex count"), "{e}");
    }

    #[test]
    fn binary_huge_counts_with_short_body_fail_without_allocating() {
        // Both headers would need terabytes if trusted; the reader must
        // run out of input instead.
        let e = read_binary_csr(&mut with_header(1 << 31, 0, &[0, 0]).as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        let e =
            read_binary_csr(&mut with_header(1, 1 << 40, &[0, 1 << 40]).as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_rejects_inconsistent_offsets() {
        // Last offset disagrees with the header's edge count.
        let e = read_binary_csr(&mut with_header(1, 2, &[0, 1]).as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // Non-monotone offsets (targets 0, 1, 0 packed as u32 words).
        let mut buf = with_header(2, 2, &[0, 3, 2]);
        buf.extend([0u32, 1].iter().flat_map(|t| t.to_le_bytes()));
        let e = read_binary_csr(&mut buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("non-decreasing"), "{e}");
    }

    #[test]
    fn binary_rejects_out_of_range_target() {
        let mut buf = with_header(2, 1, &[0, 1, 1]);
        buf.extend_from_slice(&7u32.to_le_bytes());
        let e = read_binary_csr(&mut buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn binary_empty_graph() {
        let g = CsrGraph::from_edges(5, &[]);
        let mut buf = Vec::new();
        write_binary_csr(&mut buf, &g).unwrap();
        assert_eq!(read_binary_csr(&mut buf.as_slice()).unwrap(), g);
    }
}
