//! The `sqlgen` generate and serve paths reject retired and unknown flags
//! and bad constraint values with their usage text and exit status 2,
//! before doing any work, and refuse a malformed `--load` checkpoint with
//! an error message and exit status 1.

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

/// `--load` of a checkpoint whose tensors do not fit together (here: the
/// actor's start token far outside its embedding) is refused with an
/// error message and exit status 1 instead of a panic.
#[test]
fn load_of_malformed_checkpoint_exits_with_error() {
    let dir = std::env::temp_dir().join(format!("sqlgen-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (good, bad) = (dir.join("good.ckpt"), dir.join("bad.ckpt"));
    let base = [
        "--benchmark",
        "tpch",
        "--scale",
        "0.05",
        "--range",
        "1",
        "1000",
        "--n",
        "1",
        "--train",
        "0",
    ];
    let (code, err) = run(&[&base[..], &["--save", good.to_str().unwrap()]].concat());
    assert_eq!(code, Some(0), "{err}");
    // The actor serializes first, so the first start token is its own.
    let text = std::fs::read_to_string(&good).unwrap();
    let key = "\"start_token\":";
    let at = text.find(key).expect("actor start token") + key.len();
    let end = at + text[at..].find(',').expect("more fields follow");
    std::fs::write(&bad, format!("{}1000000{}", &text[..at], &text[end..])).unwrap();
    let (code, err) = run(&[&base[..], &["--load", bad.to_str().unwrap()]].concat());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("bad checkpoint"), "{err}");
    assert!(err.contains("start_token"), "{err}");
}
