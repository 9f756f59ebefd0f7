//! `culda train --policy word` end to end through the built binary: the
//! word layout scores on `--score-every` like the document layout does.

use std::process::Command;

/// Runs `culda` with whitespace-separated `args`; returns its stdout.
fn culda(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_culda"))
        .args(args.split_whitespace())
        .output()
        .expect("run culda");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "culda {args} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn word_policy_prints_one_scored_iter_line_per_iteration() {
    let dir = std::env::temp_dir().join(format!("culda-cli-word-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.to_str().unwrap();
    culda(&format!(
        "generate --preset tiny --docword {base}/c.dw --vocab {base}/c.v"
    ));
    for policy in ["word", "doc"] {
        let stdout = culda(&format!(
            "train --docword {base}/c.dw --vocab {base}/c.v --model {base}/{policy}.phi \
             --policy {policy} --topics 16 --gpus 2 --platform pascal --iters 3 \
             --score-every 1"
        ));
        let iters = stdout.lines().filter(|l| l.starts_with("iter ")).count();
        assert_eq!(iters, 3, "--policy {policy} printed:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
