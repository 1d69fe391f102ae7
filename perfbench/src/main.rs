//! End-to-end and per-layer benchmark of the NUAT simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <saturated|singlecore|multicore|multichannel> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload is closed-loop and runs on one thread in the default
//! configuration. With `--trace 0` the run times untraced passes and
//! prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced passes with traced ones, prints the per-layer table, and
//! writes the spans to `perfbench/out/`. Either way every job is
//! checked (all reads returned, identical outputs in every pass, one
//! job's full command stream replayed through the reference protocol
//! checker), and any failure makes the exit code non-zero. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod layers;
mod probe;
mod report;
mod run;
mod saturated;
mod spans;
mod stamp;
mod stats;
mod sweep;

use run::Workload;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    // The simulator reads `NUAT_*` variables as toggles; the benchmark
    // measures the default configuration only.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("NUAT_"))
    {
        return Err(format!(
            "{} is set; unset it to measure the default configuration",
            name.to_string_lossy()
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn write_spans(args: &Args, stamp_line: &str, tracer: &spans::Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut text = format!("{{\"stamp\":{stamp_line:?}}}\n");
    tracer.write_jsonl(&mut text);
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let w = args.workload;
    let out = if args.trace {
        run::per_layer(w, args.seed, args.seconds)
    } else {
        run::end_to_end(w, args.seed, args.seconds)
    };
    let wall = start.elapsed().as_secs_f64();
    let stamp_line = format!(
        "workload={} seed={} trace={} wall_s={wall:.3} commit={} source={} {}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        stamp::commit(),
        stamp::source_hash(),
        stamp::host(),
    );
    println!("stamp: {stamp_line}");
    println!("inputs: {}", w.inputs());
    println!(
        "passes: {} untraced, {} traced; a chunk is {}",
        out.passes.0,
        out.passes.1,
        w.chunk()
    );
    if let Some(spread) = stats::quartile_spread(&out.pass_ms) {
        let ms: Vec<String> = out.pass_ms.iter().map(|t| format!("{t:.1}")).collect();
        println!(
            "untraced pass times (ms, quartile spread {spread:.4}): {}",
            ms.join(" ")
        );
    }
    let mut metrics = out.metrics;
    metrics.push(report::Metric::unlisted(
        "fail_pct",
        "%",
        out.tally.fail_pct(),
        out.tally.attempted as usize,
    ));
    print!("{}", report::table(&metrics));
    if let Some(tracer) = &out.tracer {
        match write_spans(&args, &stamp_line, tracer) {
            Ok(path) => println!("spans: {} written to {path}", tracer.len()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report::json_line(&out.tally, &metrics));
    if out.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
