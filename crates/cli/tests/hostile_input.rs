//! Untrusted input must be rejected with `error: ...` and exit code 2,
//! never a panic (exit 101) or an unbounded allocation.

use std::process::Command;

/// Run the `obfs` binary on `args`, returning (exit code, stderr).
fn obfs(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obfs")).args(args).output().expect("run obfs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Write `bytes` to a fresh file named `name`, returning its path.
fn write_file(name: &str, bytes: &[u8]) -> String {
    let dir = std::env::temp_dir().join(format!("obfs-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path.to_string_lossy().into_owned()
}

/// A binary CSR file whose header promises `n`/`m` and whose body is
/// `body` (u64 words).
fn write_bin(name: &str, n: u64, m: u64, body: &[u64]) -> String {
    let mut bytes = b"OBFSCSR1".to_vec();
    for w in [n, m].iter().chain(body) {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    write_file(name, &bytes)
}

#[test]
fn corrupt_binary_csr_is_an_error_not_a_panic() {
    let cases = [
        write_bin("max_n.bin", u64::MAX, 0, &[0]),
        write_bin("huge_m.bin", 1, 1 << 40, &[0, 1 << 40]),
        write_bin("decreasing.bin", 2, 0, &[0, 1, 0]),
    ];
    for path in &cases {
        let (code, stderr) = obfs(&["stats", "--in", path]);
        assert_eq!(code, Some(2), "{path}: {stderr}");
        assert!(stderr.starts_with("error:"), "{path}: {stderr}");
        assert!(!stderr.contains("panicked"), "{path}: {stderr}");
    }
}

/// A Matrix Market size line whose `nnz` no body backs: the reader must
/// not size anything from it (2^62 overflowed capacity, 10^12 exhausted
/// memory) and must reject the count mismatch.
#[test]
fn matrix_market_with_huge_nnz_is_an_error_not_an_allocation() {
    for nnz in [1u64 << 62, 1_000_000_000_000] {
        let mtx = format!("%%MatrixMarket matrix coordinate pattern general\n2 2 {nnz}\n1 2\n");
        let path = write_file(&format!("nnz_{nnz}.mtx"), mtx.as_bytes());
        let (code, stderr) = obfs(&["bfs", "--in", &path]);
        assert_eq!(code, Some(2), "{path}: {stderr}");
        assert!(stderr.starts_with("error:"), "{path}: {stderr}");
        assert!(!stderr.contains("panicked"), "{path}: {stderr}");
    }
}
