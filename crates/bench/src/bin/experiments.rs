//! Experiment driver: regenerates every table/figure of the reproduction.
//!
//! ```text
//! experiments <id>|all|list [--quick] [--seed N] [--out DIR]
//! ```

use fews_bench::experiments::{registry, ExpCtx};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<String> = None;
    let mut quick = false;
    let mut seed = 2021u64; // PODS 2021
    let mut out_dir = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            other if !other.starts_with('-') && id.is_none() => id = Some(other.to_string()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let id = id.unwrap_or_else(|| "list".to_string());

    let reg = registry();
    if id == "list" {
        println!("available experiments (run with `experiments <id>` or `experiments all`):\n");
        for e in &reg {
            println!("  {:10} {}", e.id, e.claim);
        }
        return;
    }

    let ctx = ExpCtx {
        out_dir,
        quick,
        seed,
    };
    std::fs::create_dir_all(&ctx.out_dir).expect("create results dir");

    let selected: Vec<_> = if id == "all" {
        reg.iter().collect()
    } else {
        let found: Vec<_> = reg.iter().filter(|e| e.id == id).collect();
        if found.is_empty() {
            usage(&format!("unknown experiment {id}; try `experiments list`"));
        }
        found
    };

    for e in selected {
        let started = std::time::Instant::now();
        println!("\n=== {} — {}\n", e.id, e.claim);
        for table in (e.run)(&ctx) {
            println!("{}", table.render());
        }
        println!(
            "[{} done in {:.1}s; CSV in {}]",
            e.id,
            started.elapsed().as_secs_f64(),
            ctx.out_dir.display()
        );
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments <id>|all|list [--quick] [--seed N] [--out DIR]");
    std::process::exit(2);
}
