//! `fews run` infers a flag left out by a first pass that only parses the
//! file, then runs the one checked streaming pass: its answer equals the
//! answer with the same values given, and an update out of range of a
//! given flag is a usage error (exit 2), never a panic or a wrong answer.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fews(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fews"))
        .args(args)
        .output()
        .expect("run fews")
}

/// A stream file of `lines` in the temp dir, unique to this process.
fn stream_file(name: &str, lines: &[String]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fews-cli-{}-{name}.txt", std::process::id()));
    std::fs::write(&path, lines.join("\n") + "\n").expect("write stream");
    path
}

/// `run`'s report without its timing: the answer lines, then the model,
/// the update count and the state size.
fn report(args: &[&str]) -> Vec<String> {
    let out = fews(args);
    assert!(
        out.status.success(),
        "fews {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| match line.split_once(" updates in ") {
            Some((head, tail)) => format!("{head} updates |{}", tail.split_once('|').unwrap().1),
            None => line.to_string(),
        })
        .collect()
}

#[test]
fn inferred_flags_answer_as_given_ones() {
    // Vertex a holds 3·(a mod 5 + 1) distinct neighbours.
    let io: Vec<String> = (0..16u32)
        .flat_map(|a| (0..3 * (a % 5 + 1)).map(move |b| format!("{a} {b}")))
        .collect();
    // The same shape on 8 vertices and 10 B-vertices, then every third
    // edge deleted.
    let inserts: Vec<String> = (0..8u32)
        .flat_map(|a| (0..10u32).map(move |b| format!("{a} {b}")))
        .collect();
    let deletes = inserts.iter().step_by(3).map(|e| format!("{e} -"));
    let id: Vec<String> = inserts.iter().cloned().chain(deletes).collect();
    let io = stream_file("io", &io);
    let id = stream_file("id", &id);
    let (io, id) = (io.to_str().unwrap(), id.to_str().unwrap());

    let inferred = report(&["run", io, "--d", "8"]);
    assert!(inferred[0].starts_with("vertex"), "{inferred:?}");
    assert_eq!(
        inferred,
        report(&["run", io, "--d", "8", "--model", "io", "--n", "16"])
    );
    let inferred = report(&["run", id, "--d", "4"]);
    assert!(
        inferred.last().unwrap().starts_with("model id"),
        "{inferred:?}"
    );
    assert_eq!(
        inferred,
        report(&["run", id, "--d", "4", "--model", "id", "--n", "8", "--m", "10"])
    );
}

#[test]
fn out_of_range_updates_are_usage_errors() {
    let t = stream_file("t", &["0 5", "1 6", "2 7", "2 8"].map(String::from));
    let td = stream_file("td", &["0 5", "1 6", "1 6 -"].map(String::from));
    let empty = stream_file("empty", &[]);
    let (t, td, empty) = (
        t.to_str().unwrap(),
        td.to_str().unwrap(),
        empty.to_str().unwrap(),
    );
    for args in [
        &["run", t, "--n", "1", "--d", "1"][..],
        &["run", td, "--m", "2", "--d", "1"],
        &["stats", t, "--n", "1"],
        &["stats", empty, "--n", "0"],
    ] {
        assert_eq!(fews(args).status.code(), Some(2), "fews {args:?}");
    }
}
