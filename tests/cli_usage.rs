//! The `sqlgen` generate and serve paths reject retired and unknown flags
//! and bad constraint values with their usage text and exit status 2,
//! before doing any work.

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

#[test]
fn serve_rejects_retired_threads_flag_with_usage() {
    let (code, err) = run(&["serve", "--threads", "4"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown serve flag --threads"), "{err}");
    assert!(err.contains("sqlgen serve [flags]"), "{err}");
}

#[test]
fn serve_rejects_retired_pool_flag_with_usage() {
    let (code, err) = run(&["serve", "--legacy-pool"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown serve flag --legacy-pool"), "{err}");
    assert!(err.contains("sqlgen serve [flags]"), "{err}");
}

#[test]
fn bad_constraint_values_exit_with_usage() {
    for args in [
        &["--range", "500", "100"][..],
        &["--range", "nan", "100"],
        &["--point", "nan"],
        &["--range", "1", "inf"],
    ] {
        let (code, err) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("constraint"), "{args:?}: {err}");
        assert!(err.contains("USAGE"), "{args:?}: {err}");
    }
}
