//! Plain text edge lists: one `u v` pair per line, `#` comments.

use crate::{CsrGraph, GraphBuilder, VertexId};
use std::io::{self, BufRead, Write};

/// Read a whitespace-separated edge list. Vertex ids are 0-based; the
/// vertex count is `max id + 1` unless `n` forces a larger graph.
pub fn read_edge_list<R: BufRead>(r: R, n: Option<usize>) -> io::Result<CsrGraph> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: u64 = 0;
    for line in r.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: u64 = it
            .next()
            .ok_or_else(|| bad("missing source"))?
            .parse()
            .map_err(|_| bad("bad source id"))?;
        let v: u64 = it
            .next()
            .ok_or_else(|| bad("missing target"))?
            .parse()
            .map_err(|_| bad("bad target id"))?;
        if it.next().is_some() {
            return Err(bad("more than two columns on an edge line"));
        }
        if u > VertexId::MAX as u64 - 1 || v > VertexId::MAX as u64 - 1 {
            return Err(bad("vertex id exceeds u32 range"));
        }
        max_id = max_id.max(u).max(v);
        edges.push((u as VertexId, v as VertexId));
    }
    let implied = if edges.is_empty() { 0 } else { max_id as usize + 1 };
    let n = n.map_or(implied, |forced| forced.max(implied));
    let mut b = GraphBuilder::new(n).dedup(false).allow_self_loops(true);
    b.extend(edges);
    Ok(b.build())
}

/// Write a graph as a text edge list.
pub fn write_edge_list<W: Write>(w: &mut W, g: &CsrGraph) -> io::Result<()> {
    writeln!(w, "# obfs edge list: n={} m={}", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::io::BufReader;

    #[test]
    fn roundtrip() {
        let g = gen::barabasi_albert(60, 2, 4);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let back = read_edge_list(BufReader::new(buf.as_slice()), None).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = read_edge_list(BufReader::new("# header\n\n0 1\n# mid\n1 2\n".as_bytes()), None)
            .unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn forced_n_adds_isolated_vertices() {
        let g = read_edge_list(BufReader::new("0 1\n".as_bytes()), Some(10)).unwrap();
        assert_eq!(g.num_vertices(), 10);
        // forced n smaller than implied is ignored
        let g2 = read_edge_list(BufReader::new("0 5\n".as_bytes()), Some(2)).unwrap();
        assert_eq!(g2.num_vertices(), 6);
    }

    #[test]
    fn empty_input() {
        let g = read_edge_list(BufReader::new("".as_bytes()), None).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(read_edge_list(BufReader::new("0\n".as_bytes()), None).is_err());
        assert!(read_edge_list(BufReader::new("0 1 2\n".as_bytes()), None).is_err());
        assert!(read_edge_list(BufReader::new("a b\n".as_bytes()), None).is_err());
    }

    #[test]
    fn preserves_duplicates_and_self_loops() {
        let g = read_edge_list(BufReader::new("0 0\n0 1\n0 1\n".as_bytes()), None).unwrap();
        assert_eq!(g.num_edges(), 3);
    }
}
