//! The `sqlgen` generate path rejects retired and unknown flags with its
//! usage text and exit status 2, before doing any work.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sqlgen"))
        .args(args)
        .output()
        .expect("sqlgen runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn retired_threads_flag_exits_with_usage() {
    let (code, err) = run(&["--threads", "2", "--range", "1", "2"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown flag --threads"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}
