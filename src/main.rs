//! `sdl-lab` — command-line interface to the color-matching benchmark.
//!
//! ```text
//! sdl-lab run [--samples N] [--batch B] [--solver NAME] [--seed S]
//!             [--backend sim|remote:<url>|replay:<path>]
//!             [--fidelity full|fast|lowres]
//!             [--target R,G,B] [--config FILE] [--runlog-dir DIR]
//!             [--export-portal FILE] [--flat-field]
//! sdl-lab sweep --batches 1,2,4,8 [--samples N] [--threads T]
//! sdl-lab campaign --config FILE [--threads T] [--workers url1,url2,...]
//!                  [--shard N] [--export-portal FILE] [--event-log FILE]
//!                  [--chaos SPEC] [--failure-budget N]
//! sdl-lab campaign --resume LOG [--threads T] [--export-portal FILE]
//! sdl-lab stress [--samples N] [--batch B] [--seed S] [--seeds K]
//!                [--solvers LIST] [--objectives LIST] [--kinds LIST]
//!                [--threads T] [--workers url1,url2,...] [--shard N]
//!                [--event-log FILE] [--export-portal FILE] [--fingerprint]
//! sdl-lab portal --import FILE [--experiment ID] [--run N]
//! sdl-lab serve [--import FILE | --campaign FILE] [--addr HOST:PORT]
//!               [--campaign-threads T] [--blob-dir DIR]
//!               [--event-log FILE] [--chaos SPEC] [--max-conns N]
//!               [--quota RATE[:BURST]] [--max-inflight N]
//!               [--blob-mem-cap BYTES]
//! sdl-lab watch URL [--once] [--interval-ms N]
//! sdl-lab workcell
//! sdl-lab help
//! ```

use sdl_lab::core::{
    batch_sweep, AppConfig, Arg, BackendSpec, CampaignConfig, CampaignReport, CampaignRunner,
    CampaignScheduler, ChaosPolicy, ColorPickerApp, EventLog, EventRecord, Experiment, Flags,
    Leaderboard, ProgressModel, StressKind, StressSuite,
};
use sdl_lab::datapub::AcdcPortal;
use std::path::PathBuf;
use std::process::ExitCode;

use Arg::{Setting, Switch, Value};

/// The flags that build an application config (`run`, `sweep`, `stress`).
/// `--flat-field` sets `flat_field: true`.
const CONFIG_FLAGS: &[(&str, Arg)] = &[
    ("--config", Value),
    ("--samples", Setting("samples")),
    ("--batch", Setting("batch")),
    ("--solver", Setting("solver")),
    ("--seed", Setting("seed")),
    ("--target", Setting("target")),
    ("--fidelity", Setting("fidelity")),
    ("--flat-field", Switch),
];
const RUN_FLAGS: &[(&str, Arg)] = &[
    ("--backend", Value),
    ("--runlog-dir", Value),
    ("--export-portal", Value),
    ("--export-html", Value),
    ("--blob-dir", Value),
];
const SWEEP_FLAGS: &[(&str, Arg)] = &[("--batches", Value), ("--threads", Value)];
const CAMPAIGN_FLAGS: &[(&str, Arg)] = &[
    ("--config", Value),
    ("--resume", Value),
    ("--threads", Value),
    ("--workers", Value),
    ("--shard", Value),
    ("--export-portal", Value),
    ("--fingerprint", Switch),
    ("--event-log", Value),
    ("--chaos", Value),
    ("--failure-budget", Value),
];
const STRESS_FLAGS: &[(&str, Arg)] = &[
    ("--solvers", Value),
    ("--objectives", Value),
    ("--kinds", Value),
    ("--seeds", Value),
    ("--threads", Value),
    ("--workers", Value),
    ("--shard", Value),
    ("--event-log", Value),
    ("--export-portal", Value),
    ("--fingerprint", Switch),
];
const PORTAL_FLAGS: &[(&str, Arg)] =
    &[("--import", Value), ("--experiment", Value), ("--run", Value)];
const SERVE_FLAGS: &[(&str, Arg)] = &[
    ("--import", Value),
    ("--campaign", Value),
    ("--addr", Value),
    ("--campaign-threads", Value),
    ("--blob-dir", Value),
    ("--event-log", Value),
    ("--chaos", Value),
    ("--max-conns", Value),
    ("--quota", Value),
    ("--max-inflight", Value),
    ("--blob-mem-cap", Value),
];
const WATCH_FLAGS: &[(&str, Arg)] = &[("--once", Switch), ("--interval-ms", Value)];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let rest = args.get(1..).unwrap_or_default();
    let flags = |lists: &[&[(&'static str, Arg)]]| Flags::parse(command, rest, lists);
    let result = match command {
        "run" => flags(&[CONFIG_FLAGS, RUN_FLAGS]).and_then(|f| cmd_run(&f)),
        "sweep" => flags(&[CONFIG_FLAGS, SWEEP_FLAGS]).and_then(|f| cmd_sweep(&f)),
        "campaign" => flags(&[CAMPAIGN_FLAGS]).and_then(|f| cmd_campaign(&f)),
        "stress" => flags(&[CONFIG_FLAGS, STRESS_FLAGS]).and_then(|f| cmd_stress(&f)),
        "portal" => flags(&[PORTAL_FLAGS]).and_then(|f| cmd_portal(&f)),
        "serve" => flags(&[SERVE_FLAGS]).and_then(|f| cmd_serve(&f)),
        "watch" => cmd_watch(rest),
        "workcell" => flags(&[]).map(|_| {
            println!("{}", sdl_lab::wei::RPL_WORKCELL_YAML);
            match sdl_lab::wei::WorkcellConfig::from_yaml(sdl_lab::wei::RPL_WORKCELL_YAML) {
                Ok(cfg) => println!("{}", sdl_lab::wei::workcell_diagram(&cfg)),
                Err(e) => eprintln!("diagram unavailable: {e}"),
            }
        }),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'sdl-lab help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "sdl-lab — self-driving-lab color-matching benchmark (simulated RPL workcell)

commands:
  run        run one closed-loop experiment and print metrics + portal summary
  sweep      run a batch-size sweep (Figure 4 style) through the campaign engine
  campaign   run a declarative scenario matrix (solvers x seeds x batches x ...)
  stress     run the built-in ColorBench-style stress suite (objectives x
             drift/multi-target/moving-target conditions x solvers x seeds)
             and print a per-solver leaderboard
  portal     inspect an exported portal JSON-lines file
  serve      serve the ACDC portal over HTTP (saved export or live campaign)
  watch      live terminal dashboard for a serving campaign (reads /events)
  workcell   print the default workcell YAML
  help       this text

Each command refuses a flag it does not take (with a did-you-mean hint), a
flag given twice, and a flag missing its value; setting flags accept exactly
the values the matching config key accepts (--samples 0 is refused as
'samples: 0' is), and count flags take digits only, from 1 up
(--failure-budget from 0).

run options:
  --samples N         sample budget (default 128)
  --batch B           wells per iteration (default 1)
  --solver NAME       any registered solver (built-ins:
                      genetic|bayesian|annealing|random|grid|analytic)
  --backend SPEC      lab executor: sim (default), remote:<url> (a
                      'sdl-lab serve' worker), or replay:<path> (re-drive a
                      recorded portal export offline)
  --seed S            master seed (default 42)
  --target R,G,B      target color (default 120,120,120)
  --config FILE       load a YAML application config (other flags override)
  --runlog-dir DIR    write per-workflow run logs (text files)
  --export-portal F   write all published records as JSON lines
  --export-html F     write a static HTML portal view (with plate images)
  --blob-dir DIR      spill plate-image blobs to DIR (servable later via
                      'serve --blob-dir DIR')
  --flat-field        enable the detector's flat-field correction
  --fidelity NAME     camera fidelity profile: full (frozen reference
                      renderer), fast (counter-based, default), lowres
                      (counter-based at 320x240)

sweep options:
  --batches LIST      comma-separated batch sizes (default 1,2,4,8,16,32,64)
  --samples N         sample budget per experiment (default 128)
  --threads T         worker threads (default: one per core)

campaign options:
  --config FILE       scenario-matrix YAML (solvers/seeds/batches/targets/
                      mix_models/fidelities/fault_rates/n_ot2 axes over a
                      base config)
  --threads T         worker threads (overrides the config's 'threads')
  --workers LIST      comma-separated worker addresses (host:port); fans the
                      campaign across remote 'sdl-lab serve' workers with
                      work stealing (overrides the config's 'workers:')
  --shard N           scheduler shard size, scenarios per deal unit
                      (overrides the config's 'shard:'; default automatic)
  --export-portal F   write every streamed scenario record as JSON lines
  --fingerprint       print the campaign's determinism fingerprint
  --event-log FILE    append every campaign event (claims, batches, samples,
                      completions) to FILE as durable, checksummed JSON lines
  --chaos SPEC        (worker pools only) inject deterministic transport
                      faults into the driver-worker wire, e.g.
                      'seed=7,connect=0.05,disconnect=0.05,replay=0.05';
                      keys: seed, connect, disconnect, timeout, http500,
                      replay (probabilities in [0,1]); retry-safe faults
                      leave the fingerprint bit-identical
  --failure-budget N  (worker pools only) quarantine a scenario as a
                      deterministic failure after N failed delivery attempts
                      instead of requeueing forever (default 10; 0 = never)
  --resume LOG        recover LOG from a crashed campaign and finish it:
                      completed scenarios replay bit-exactly from the log,
                      interrupted ones re-drive; the merged report equals an
                      uninterrupted run's (--config is not needed — the
                      scenario matrix is recovered from the log itself)

stress options (plus --samples/--batch/--seed/--config from 'run'):
  --solvers LIST      comma-separated solvers to rank (default
                      genetic,bayesian,random,annealing)
  --objectives LIST   comma-separated objectives (rgb|cie76|cie94|ciede2000|
                      cam16ucs; default rgb,ciede2000,cam16ucs)
  --kinds LIST        comma-separated stress conditions (baseline|wb-drift|
                      gain-drift|multi-target|moving-target; default all)
  --seeds K           replications: master seeds seed..seed+K-1 (default 2)
  --threads T         worker threads (default: one per core)
  --workers LIST      fan the suite across remote 'sdl-lab serve' workers
  --shard N           scheduler shard size (worker pools; default automatic)
  --event-log FILE    append campaign events to FILE (finish a crashed suite
                      with 'sdl-lab campaign --resume FILE')
  --export-portal F   write scenario records + the leaderboard as JSON lines
  --fingerprint       print the suite's determinism fingerprint

portal options:
  --import FILE       JSON-lines file written by --export-portal
  --experiment ID     experiment to summarize (default: first found)
  --run N             also print the detail view of run N

serve options (no flags = empty portal in lab-worker mode):
  --import FILE       serve a saved JSON-lines portal export
  --campaign FILE     run a campaign (scenario-matrix YAML) on background
                      workers; records stream into the live server as
                      scenario prefixes complete
  --addr HOST:PORT    bind address (default 127.0.0.1:8323; port 0 = ephemeral)
  --campaign-threads T campaign worker threads (default: one per core)
  --blob-dir DIR      blob spill directory; with --import, previously
                      spilled plate images are reloaded and served (a
                      file whose content does not hash to its name is
                      skipped with a warning)
  --event-log FILE    with --campaign: also persist the event stream to FILE
                      (without this flag a campaign still streams /events
                      from an in-memory log; FILE makes it crash-resumable)
  --chaos SPEC        misbehave as a lab worker, deterministically, e.g.
                      'seed=3,stall=0.1,error=0.05,kill=0.01'; keys: seed,
                      stall, error, kill, shed, stall_ms ('/healthz' is never
                      chaos'd, so schedulers can still probe and readmit)
  --max-conns N       live-connection cap, the server's one concurrency
                      bound: each admitted connection gets its own thread;
                      connections over the cap are answered 503 +
                      Retry-After at accept, never queued (default 256,
                      at least 1)
  --quota RATE[:BURST] per-tenant token-bucket quota on the /v1 batch API
                      (tenant = session id); over budget answers 429 +
                      Retry-After, e.g. '50' or '100:200' (RATE tokens/s,
                      BURST bucket size, default BURST = 2*RATE)
  --max-inflight N    cap concurrently executing /v1/batch requests; over
                      the cap answers 503 + Retry-After (default: only
                      --max-conns bounds them)
  --blob-mem-cap B    in-memory blob ceiling in bytes ('64k'/'16m'/'1g'
                      suffixes ok), loading --blob-dir included; over the
                      cap the least-recently-used blobs drop to the
                      --blob-dir spill files and reload hash-verified on
                      demand (needs --blob-dir)
  (SIGTERM drains gracefully: new sessions are refused 503, in-flight
  batches finish, the event log is flushed, then the process exits 0)

watch options (URL is a 'sdl-lab serve' address, e.g. http://127.0.0.1:8323):
  --once              render the current campaign state once and exit
  --interval-ms N     minimum redraw interval (default 500)
  (reconnects with capped exponential backoff; exits with an error after
  6 consecutive failed polls, so a dead server never spins the terminal)

serve endpoints:
  /records            JSON lines; dotted-path filters + limit/offset, e.g.
                      /records?kind=sample&run=12&limit=50&offset=0
  /events             campaign event log, JSON lines; ?from=SEQ&limit=N
                      &timeout_ms=T long-polls (X-Next-Seq header carries
                      the cursor); /events/stream is the same as SSE
  /summary            experiment summary HTML   (?experiment=ID)
  /runs/<run>         run detail HTML           (?experiment=ID)
  /blobs/<ref>        raw plate images
  /healthz            liveness JSON
  /metrics            Prometheus text (+ sdl_lab_campaign_* gauges when a
                      campaign event log is attached)
  /v1/experiments, /v1/batch, /v1/close   POST: the batch-execution API
                      (drive this server as a lab worker from another
                      process via 'run --backend remote:<addr>')

example:
  sdl-lab run --samples 64 --export-portal out.jsonl
  sdl-lab serve --import out.jsonl --addr 127.0.0.1:8323
  curl http://127.0.0.1:8323/records?kind=sample&limit=5

remote-worker example:
  sdl-lab serve --addr 127.0.0.1:8323 &          # lab worker
  sdl-lab run --samples 16 --backend remote:127.0.0.1:8323
  sdl-lab run --samples 16 --export-portal rec.jsonl
  sdl-lab run --samples 16 --backend replay:rec.jsonl   # offline re-drive

worker-pool example (distributed campaign, bit-identical to single-process):
  sdl-lab serve --addr 127.0.0.1:8331 &          # worker 1
  sdl-lab serve --addr 127.0.0.1:8332 &          # worker 2
  sdl-lab campaign --config c.yaml --workers 127.0.0.1:8331,127.0.0.1:8332

observability example (live dashboard + crash resume):
  sdl-lab serve --campaign c.yaml --event-log c.events &
  sdl-lab watch http://127.0.0.1:8323             # live terminal dashboard
  kill -9 %1                                      # simulate a crash...
  sdl-lab campaign --resume c.events --fingerprint   # ...and finish the rest"
    );
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (powers of 1024),
/// e.g. `65536`, `64k`, `16m`.
fn parse_bytes(s: &str) -> Result<usize, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1024),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1024 * 1024),
        Some('g') | Some('G') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    let n: usize = digits.trim().parse().map_err(|_| "expected BYTES[k|m|g]".to_string())?;
    n.checked_mul(mult).ok_or_else(|| "byte count overflows".to_string())
}

/// The application config from `--config FILE` and the setting flags,
/// each flag set through the config key it maps onto.
fn build_config(flags: &Flags) -> Result<AppConfig, String> {
    let mut config = match flags.value("--config") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            AppConfig::from_yaml(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => AppConfig::default(),
    };
    for &(flag, arg) in CONFIG_FLAGS {
        if let (Setting(key), Some(text)) = (arg, flags.value(flag)) {
            config.set_text(key, text).map_err(|e| format!("{flag}: {e}"))?;
        }
    }
    if flags.present("--flat-field") {
        config.set_text("flat_field", "true").map_err(|e| format!("--flat-field: {e}"))?;
    }
    Ok(config)
}

/// A comma-separated list of values for config `key`, each read through
/// the config setter; `read` takes the swept field from the result.
fn setting_list<T>(
    flag: &str,
    key: &str,
    list: &str,
    read: impl Fn(&AppConfig) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    list.split(',')
        .map(|text| {
            let mut config = AppConfig::default();
            config.set_text(key, text).map_err(|e| format!("{flag}: {e}"))?;
            read(&config)
        })
        .collect()
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let config = build_config(flags)?;
    let backend = match flags.value("--backend") {
        Some(v) => BackendSpec::parse(v).map_err(|e| e.to_string())?,
        None => BackendSpec::Sim,
    };
    let runlog_dir = flags.value("--runlog-dir").map(PathBuf::from);
    if runlog_dir.is_some() && backend != BackendSpec::Sim {
        return Err("--runlog-dir needs the sim backend (run logs live lab-side)".into());
    }
    let export = flags.value("--export-portal").map(PathBuf::from);
    let export_html = flags.value("--export-html").map(PathBuf::from);

    eprintln!(
        "running {} samples, batch {}, solver {}, seed {}, backend {backend}...",
        config.sample_budget,
        config.batch,
        config.solver_label(),
        config.seed
    );
    // The sim path keeps the full application (engine access for run logs);
    // other executors drive a bare ask/tell session on the chosen backend.
    let (outcome, app) = match backend {
        BackendSpec::Sim => {
            let mut app = ColorPickerApp::new(config).map_err(|e| e.to_string())?;
            let outcome = app.run().map_err(|e| e.to_string())?;
            (outcome, Some(app))
        }
        spec => {
            let mut session = Experiment::new(config.clone()).map_err(|e| e.to_string())?;
            let mut lab = spec.build(&config).map_err(|e| e.to_string())?;
            let outcome = session.run_on(lab.as_mut()).map_err(|e| e.to_string())?;
            (outcome, None)
        }
    };

    println!("experiment:  {}", outcome.experiment_id);
    println!("termination: {}", outcome.termination);
    println!("duration:    {} (virtual)", outcome.duration);
    println!("best score:  {:.2} at {:?}", outcome.best_score, outcome.best_ratios);
    println!();
    println!("{}", outcome.metrics.render_table1());
    println!("{}", outcome.portal.summary_view(&outcome.experiment_id));

    if let (Some(dir), Some(app)) = (runlog_dir, &app) {
        let n = app.engine().export_runlogs(&dir).map_err(|e| e.to_string())?;
        println!("wrote {n} run logs to {}", dir.display());
    }
    if let Some(path) = export {
        let n = outcome.portal.export_jsonl(&path).map_err(|e| e.to_string())?;
        println!("exported {n} portal records to {}", path.display());
    }
    if let Some(path) = export_html {
        outcome
            .portal
            .export_html(&path, &outcome.experiment_id, Some(&outcome.store))
            .map_err(|e| e.to_string())?;
        println!("wrote HTML portal view to {}", path.display());
    }
    if let Some(dir) = flags.value("--blob-dir") {
        let spill = sdl_lab::datapub::BlobStore::with_spill_dir(dir);
        outcome.store.merge_into(&spill);
        println!("spilled {} plate-image blobs to {dir}", spill.len());
    }
    Ok(())
}

fn runner_for(flags: &Flags) -> Result<CampaignRunner, String> {
    let mut runner = CampaignRunner::new();
    if let Some(t) = flags.count("--threads", 1)? {
        runner = runner.threads(t);
    }
    Ok(runner)
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let runner = runner_for(flags)?;
    let mut base = build_config(flags)?;
    base.publish_images = false;
    let batches: Vec<u32> = match flags.value("--batches") {
        Some(list) => setting_list("--batches", "batch", list, |c| Ok(c.batch))?,
        None => vec![1, 2, 4, 8, 16, 32, 64],
    };
    eprintln!("running {} experiments of {} samples...", batches.len(), base.sample_budget);
    let report = runner.run(batch_sweep(&base, &batches));
    println!("{:<6} {:>12} {:>10} {:>8}", "batch", "duration", "best", "plates");
    for result in &report.results {
        let out = result.outcome.as_ref().map_err(|e| format!("{}: {e}", result.label()))?;
        println!(
            "{:<6} {:>12} {:>10.2} {:>8}",
            result.label(),
            out.duration().to_string(),
            out.best_score(),
            out.plates_used()
        );
    }
    Ok(())
}

fn cmd_campaign(flags: &Flags) -> Result<(), String> {
    // Counts are checked before anything is read or run.
    let runner = runner_for(flags)?.progress(true);
    let shard: Option<usize> = flags.count("--shard", 1)?;
    let failure_budget: Option<u32> = flags.count("--failure-budget", 0)?;
    // Resume mode: everything — the scenario matrix included — is
    // recovered from the event log, so --config is not accepted.
    if let Some(log_path) = flags.value("--resume") {
        if flags.value("--config").is_some() || flags.value("--workers").is_some() {
            return Err(
                "--resume recovers the scenario matrix from the log; drop --config/--workers"
                    .into(),
            );
        }
        eprintln!("resuming campaign from {log_path}...");
        let (report, stats) = runner.resume(log_path).map_err(|e| e.to_string())?;
        if let Some(torn) = &stats.recovery.torn {
            eprintln!("recovery: dropped a torn tail ({torn})");
        }
        eprintln!(
            "recovered {} events ({} bytes): {} scenario(s) replayed from the log, {} re-driven",
            stats.recovery.events, stats.recovery.valid_bytes, stats.replayed, stats.redriven
        );
        println!("# campaign (resumed from {log_path})");
        return finish_campaign(flags, &report);
    }

    let path = flags.value("--config").ok_or("campaign needs --config FILE (or --resume LOG)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let config = CampaignConfig::from_yaml(&text).map_err(|e| e.to_string())?;
    let scenarios = config.scenarios();
    if scenarios.is_empty() {
        return Err("campaign expands to zero scenarios".into());
    }
    let event_log = match flags.value("--event-log") {
        Some(p) => {
            let log = EventLog::create(p).map_err(|e| e.to_string())?;
            eprintln!("appending campaign events to {p}");
            Some(std::sync::Arc::new(log))
        }
        None => None,
    };

    // A worker pool (from --workers or the config's `workers:` key) selects
    // the distributed scheduler; otherwise the thread-pool runner.
    let workers: Vec<String> = match flags.value("--workers") {
        Some(list) => {
            list.split(',').map(str::trim).filter(|w| !w.is_empty()).map(str::to_string).collect()
        }
        None => config.workers.clone(),
    };
    let chaos = match flags.value("--chaos") {
        Some(spec) => Some(ChaosPolicy::parse(spec).map_err(|e| format!("bad --chaos: {e}"))?),
        None => None,
    };
    if workers.is_empty() && (chaos.is_some() || failure_budget.is_some()) {
        return Err(
            "--chaos/--failure-budget act on the driver-worker wire; they need a worker pool \
             (--workers or the config's 'workers:')"
                .into(),
        );
    }
    let report = if workers.is_empty() {
        let mut runner = runner.name(&config.name);
        if let Some(log) = event_log {
            runner = runner.with_events(log);
        }
        if flags.value("--threads").is_none() {
            if let Some(t) = config.threads {
                runner = runner.threads(t);
            }
        }
        eprintln!(
            "campaign '{}': {} scenarios on {} threads...",
            config.name,
            scenarios.len(),
            runner.worker_threads()
        );
        runner.run(scenarios)
    } else {
        let mut scheduler = CampaignScheduler::new(workers).progress(true).name(&config.name);
        if let Some(log) = event_log {
            scheduler = scheduler.with_events(log);
        }
        if let Some(policy) = chaos {
            scheduler = scheduler.chaos(policy);
        }
        if let Some(budget) = failure_budget {
            scheduler = scheduler.failure_budget(budget);
        }
        if let Some(s) = shard.or(config.shard) {
            scheduler = scheduler.shard_size(s);
        }
        eprintln!(
            "campaign '{}': {} scenarios across {} workers...",
            config.name,
            scenarios.len(),
            scheduler.pool().len()
        );
        let (report, sched) = scheduler.run(scenarios);
        for line in sched.summary_lines() {
            eprintln!("{line}");
        }
        report
    };
    println!("# campaign '{}'", config.name);
    finish_campaign(flags, &report)
}

/// `sdl-lab stress` — expand the built-in stress suite (objectives ×
/// adversarial conditions × solvers × seeds) through the campaign engine
/// and fold the report into a per-solver leaderboard.
fn cmd_stress(flags: &Flags) -> Result<(), String> {
    let runner = runner_for(flags)?.progress(true).name("stress");
    let shard: Option<usize> = flags.count("--shard", 1)?;
    let base = build_config(flags)?;
    let base_seed = base.seed;
    let mut suite = StressSuite::new(base);
    if let Some(list) = flags.value("--solvers") {
        suite.solvers = setting_list("--solvers", "solver", list, |c| match &c.custom_solver {
            None => Ok(c.solver),
            Some(name) => Err(format!("--solvers: '{name}' is not a built-in solver")),
        })?;
    }
    if let Some(list) = flags.value("--objectives") {
        suite.objectives = setting_list("--objectives", "objective", list, |c| Ok(c.objective))?;
    }
    if let Some(list) = flags.value("--kinds") {
        suite.kinds = list
            .split(',')
            .map(|s| {
                StressKind::parse(s).ok_or_else(|| {
                    format!(
                        "unknown stress kind '{}' (valid: {})",
                        s.trim(),
                        StressKind::valid_names()
                    )
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(k) = flags.count::<u64>("--seeds", 1)? {
        suite.seeds = (0..k).map(|i| base_seed.wrapping_add(i)).collect();
    }
    if suite.is_empty() {
        return Err("stress suite expands to zero scenarios".into());
    }
    let scenarios = suite.scenarios();

    let event_log = match flags.value("--event-log") {
        Some(p) => {
            let log = EventLog::create(p).map_err(|e| e.to_string())?;
            eprintln!("appending campaign events to {p}");
            Some(std::sync::Arc::new(log))
        }
        None => None,
    };
    let workers: Vec<String> = match flags.value("--workers") {
        Some(list) => {
            list.split(',').map(str::trim).filter(|w| !w.is_empty()).map(str::to_string).collect()
        }
        None => Vec::new(),
    };
    let report = if workers.is_empty() {
        let mut runner = runner;
        if let Some(log) = event_log {
            runner = runner.with_events(log);
        }
        eprintln!(
            "stress suite: {} scenarios ({} objectives x {} kinds x {} solvers x {} seeds) \
             on {} threads...",
            scenarios.len(),
            suite.objectives.len(),
            suite.kinds.len(),
            suite.solvers.len(),
            suite.seeds.len(),
            runner.worker_threads()
        );
        runner.run(scenarios)
    } else {
        let mut scheduler = CampaignScheduler::new(workers).progress(true).name("stress");
        if let Some(log) = event_log {
            scheduler = scheduler.with_events(log);
        }
        if let Some(s) = shard {
            scheduler = scheduler.shard_size(s);
        }
        eprintln!(
            "stress suite: {} scenarios across {} workers...",
            scenarios.len(),
            scheduler.pool().len()
        );
        let (report, sched) = scheduler.run(scenarios);
        for line in sched.summary_lines() {
            eprintln!("{line}");
        }
        report
    };

    // The leaderboard goes into the portal before the export below, so
    // `--export-portal` files carry it alongside the scenario records.
    let board = Leaderboard::from_report(&report);
    board.publish(&report.portal);
    println!("# stress leaderboard");
    println!("{}", board.render_table());
    println!();
    finish_campaign(flags, &report)
}

/// The shared tail of `campaign` and `campaign --resume`: summary table,
/// optional fingerprint and portal export, nonzero exit on failures.
fn finish_campaign(flags: &Flags, report: &CampaignReport) -> Result<(), String> {
    println!("{}", report.summary_table());
    let failed = report.results.iter().filter(|r| r.outcome.is_err()).count();
    if flags.present("--fingerprint") {
        println!("fingerprint:\n{}", report.fingerprint());
    }
    if let Some(path) = flags.value("--export-portal") {
        let n =
            report.portal.export_jsonl(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        println!("exported {n} portal records to {path}");
    }
    if failed > 0 {
        return Err(format!("{failed} scenario(s) failed"));
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use sdl_lab::datapub::{AcdcPortal, BlobStore};
    use sdl_lab::portal_server::{spawn, LabHost, PortalServer, QuotaPolicy, ServerConfig};
    use std::sync::Arc;

    let import = flags.value("--import");
    let campaign = flags.value("--campaign");
    if import.is_some() && campaign.is_some() {
        return Err("serve takes at most one of --import FILE or --campaign FILE".into());
    }
    // Counts are checked before anything is read or run.
    let campaign_threads: Option<usize> = flags.count("--campaign-threads", 1)?;
    let max_conns: Option<usize> = flags.count("--max-conns", 1)?;
    let max_inflight: Option<u64> = flags.count("--max-inflight", 1)?;
    if import.is_none() && campaign.is_none() {
        eprintln!(
            "serving an empty portal (worker mode: drive it via 'sdl-lab run --backend remote:<addr>')"
        );
    }

    let portal = Arc::new(AcdcPortal::new());
    let mem_cap = match flags.value("--blob-mem-cap") {
        Some(v) => Some(parse_bytes(v).map_err(|e| format!("bad --blob-mem-cap '{v}': {e}"))?),
        None => None,
    };
    let store: Arc<BlobStore> = match flags.value("--blob-dir") {
        Some(dir) => {
            // Capped, the load keeps only what fits in memory and leaves
            // the rest on disk for `get`.
            let store = BlobStore::open_spill_dir_capped(dir, mem_cap.unwrap_or(0))
                .map_err(|e| format!("{dir}: {e}"))?;
            eprintln!("loaded {} blobs from {dir}", store.verified());
            if store.skipped() > 0 {
                eprintln!(
                    "warning: skipped {} blob file(s) in {dir} whose content does not hash to \
                     their name: damaged, or spilled before the current content hash \
                     (re-running the seed that made them spills them again)",
                    store.skipped()
                );
            }
            if let Some(cap) = mem_cap {
                eprintln!("blob memory cap: {cap} bytes (LRU eviction over the spill dir)");
            }
            Arc::new(store)
        }
        None if mem_cap.is_some() => {
            return Err(
                "--blob-mem-cap needs --blob-dir DIR (the spill dir blobs evict into)".into()
            )
        }
        None => Arc::new(BlobStore::in_memory()),
    };

    if let Some(path) = import {
        let n =
            portal.import_jsonl(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loaded {n} records from {path}");
    }

    if flags.value("--event-log").is_some() && campaign.is_none() {
        return Err("--event-log needs --campaign FILE (the log records campaign events)".into());
    }

    // In campaign mode the runner publishes into the same portal and blob
    // store the server reads, on a background thread: scenario records
    // appear at the endpoints while the campaign is still executing.
    let mut campaign_worker = None;
    let mut event_log = None;
    if let Some(path) = campaign {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let config = CampaignConfig::from_yaml(&text).map_err(|e| e.to_string())?;
        let scenarios = config.scenarios();
        if scenarios.is_empty() {
            return Err("campaign expands to zero scenarios".into());
        }
        // The live /events feed and dashboard always get a log; --event-log
        // additionally makes it durable (and the campaign crash-resumable).
        let log = match flags.value("--event-log") {
            Some(p) => {
                eprintln!("appending campaign events to {p}");
                Arc::new(EventLog::create(p).map_err(|e| e.to_string())?)
            }
            None => Arc::new(EventLog::in_memory()),
        };
        event_log = Some(Arc::clone(&log));
        let mut runner = CampaignRunner::new()
            .with_portal(Arc::clone(&portal))
            .with_store(Arc::clone(&store))
            .with_events(log)
            .name(&config.name)
            .publish_records(true)
            .progress(true);
        if let Some(t) = campaign_threads.or(config.threads) {
            runner = runner.threads(t);
        }
        eprintln!(
            "campaign '{}': {} scenarios on {} threads (streaming into the live portal)...",
            config.name,
            scenarios.len(),
            runner.worker_threads()
        );
        campaign_worker = Some(std::thread::spawn(move || {
            let report = runner.run(scenarios);
            let failed = report.results.iter().filter(|r| r.outcome.is_err()).count();
            eprintln!(
                "campaign finished: {} scenarios, {failed} failed; portal holds {} records",
                report.len(),
                report.portal.len()
            );
        }));
    }

    let mut config = ServerConfig { addr: "127.0.0.1:8323".into(), ..ServerConfig::default() };
    if let Some(addr) = flags.value("--addr") {
        config.addr = addr.to_string();
    }
    if let Some(n) = max_conns {
        config.max_conns = n;
    }

    // Every served portal also hosts the batch-execution API, so any
    // `sdl-lab serve` process doubles as a lab worker for remote sessions.
    let mut lab = LabHost::new();
    if let Some(spec) = flags.value("--chaos") {
        let policy = ChaosPolicy::parse(spec).map_err(|e| format!("bad --chaos: {e}"))?;
        if !policy.is_noop() {
            eprintln!("worker chaos armed: {spec}");
        }
        lab = lab.with_chaos(policy);
    }
    if let Some(spec) = flags.value("--quota") {
        let quota = QuotaPolicy::parse(spec).map_err(|e| format!("bad --quota: {e}"))?;
        eprintln!("per-tenant quota armed: {spec} (over budget answers 429 + Retry-After)");
        lab = lab.with_quota(quota);
    }
    if let Some(n) = max_inflight {
        lab = lab.with_max_inflight(n);
    }
    let mut server = PortalServer::new(portal, store).with_lab(Arc::new(lab));
    if let Some(log) = event_log {
        server = server.with_events(log);
    }
    let handle = spawn(server, &config).map_err(|e| format!("bind: {e}"))?;
    // The bound address goes to stdout (and is flushed) so scripts and the
    // CI smoke test can pick up an ephemeral port.
    println!("serving on {}", handle.url());
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    eprintln!(
        "endpoints: /records /events /summary /runs/<run> /blobs/<ref> /healthz /metrics \
         (SIGTERM drains gracefully, Ctrl-C stops immediately)"
    );
    #[cfg(unix)]
    {
        // SIGTERM triggers a graceful drain instead of killing the process:
        // refuse new sessions, finish in-flight /v1 batches, flush the
        // event log, then exit 0 so orchestrators see a clean stop.
        term_signal::install();
        while !term_signal::received() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        eprintln!("SIGTERM: draining (refusing new sessions, finishing in-flight batches)");
        let server = Arc::clone(handle.server());
        server.begin_drain();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        if let Some(lab) = server.lab() {
            while lab.metrics().inflight() > 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        if let Some(log) = server.events() {
            log.sync();
        }
        handle.shutdown();
        // A campaign still running its scenario matrix is not waited for:
        // its progress is already durable in the (just-synced) event log
        // and can be finished with `campaign --resume`.
        drop(campaign_worker);
        eprintln!("drained: in-flight batches finished, event log flushed");
        Ok(())
    }
    #[cfg(not(unix))]
    {
        handle.join();
        if let Some(worker) = campaign_worker {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// SIGTERM → drain flag for `serve`. `std` has no signal API and the
/// build is dependency-free, so this declares `signal(2)` directly; the
/// handler only stores into an atomic (async-signal-safe).
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }

    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// `sdl-lab watch URL` — a live terminal dashboard over `GET /events`.
///
/// Long-polls the server's event log, folds every event into a
/// [`ProgressModel`], and redraws the rendered dashboard in place (ANSI
/// clear + home). Exits when the campaign closes, or with an error when
/// the server stays unreachable through a capped-exponential reconnect
/// backoff; `--once` renders the current state a single time (no ANSI)
/// and exits — that form is what scripts and the CI smoke test use.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    use sdl_lab::portal_server::client::HttpClient;
    use std::time::{Duration, Instant};

    let url = match args.first().map(String::as_str) {
        Some(u) if !u.starts_with("--") => u,
        _ => return Err("watch needs a server URL (e.g. http://127.0.0.1:8323)".into()),
    };
    let flags = Flags::parse("watch", &args[1..], &[WATCH_FLAGS])?;
    let addr = url.strip_prefix("http://").unwrap_or(url).trim_end_matches('/').to_string();
    let once = flags.present("--once");
    let interval: u64 = flags.count("--interval-ms", 1)?.unwrap_or(500);
    let width = std::env::var("COLUMNS").ok().and_then(|c| c.parse().ok()).unwrap_or(100);

    let mut model = ProgressModel::new();
    let mut from: u64 = 1;
    let mut client: Option<HttpClient> = None;
    // Consecutive connect/poll failures. Reconnection backs off
    // exponentially (capped) and gives up once the server looks dead,
    // rather than spinning the terminal in a tight reconnect loop.
    let mut failures: u32 = 0;
    const MAX_FAILURES: u32 = 6;
    let backoff = |failures: u32| {
        Duration::from_millis((interval.clamp(100, 5_000) << (failures - 1).min(12)).min(5_000))
    };
    // Samples/s over a sliding window of recent observations.
    let mut window: std::collections::VecDeque<(Instant, u64)> = std::collections::VecDeque::new();

    loop {
        if client.is_none() {
            match HttpClient::connect(&addr) {
                Ok(c) => client = Some(c),
                Err(e) if once => return Err(format!("{addr}: {e}")),
                Err(e) => {
                    failures += 1;
                    if failures >= MAX_FAILURES {
                        return Err(format!(
                            "{addr}: unreachable after {failures} attempts (last: {e})"
                        ));
                    }
                    std::thread::sleep(backoff(failures));
                    continue;
                }
            }
        }
        let conn = client.as_mut().expect("connected above");
        let timeout = if once { 0 } else { interval.clamp(100, 20_000) };
        let path = format!("/events?from={from}&limit=5000&timeout_ms={timeout}");
        let resp = match conn.get(&path) {
            Ok(r) => r,
            Err(e) if once => return Err(format!("{addr}: {e}")),
            Err(e) => {
                // Server restarting or keep-alive reaped: reconnect. The
                // cursor survives, so nothing is lost or double-counted.
                client = None;
                failures += 1;
                if failures >= MAX_FAILURES {
                    return Err(format!(
                        "{addr}: lost the server after {failures} attempts (last: {e})"
                    ));
                }
                std::thread::sleep(backoff(failures));
                continue;
            }
        };
        failures = 0;
        if resp.status == 404 {
            return Err(format!(
                "{url} has no campaign event log (start the server with \
                 'sdl-lab serve --campaign FILE')"
            ));
        }
        if resp.status != 200 {
            return Err(format!("{url}{path}: HTTP {}", resp.status));
        }
        for line in resp.text().lines() {
            match EventRecord::from_line(line) {
                Ok(rec) => model.apply(rec.seq, &rec.event),
                Err(e) => return Err(format!("corrupt event line: {e}")),
            }
        }
        from = match resp.header("x-next-seq").and_then(|v| v.parse().ok()) {
            Some(next) => next,
            None => model.seq + 1,
        };
        let closed = resp.header("x-log-closed") == Some("true");
        let drained = resp
            .header("x-event-head")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|h| from > h);

        let now = Instant::now();
        window.push_back((now, model.samples));
        while window.len() > 2
            && now.duration_since(window.front().unwrap().0) > Duration::from_secs(10)
        {
            window.pop_front();
        }
        let rate = window.front().and_then(|(t0, s0)| {
            let dt = now.duration_since(*t0).as_secs_f64();
            (dt > 0.0).then(|| (model.samples.saturating_sub(*s0)) as f64 / dt)
        });

        if once {
            print!("{}", model.render(width, rate));
            return Ok(());
        }
        // Clear screen, home the cursor, redraw.
        print!("\x1b[2J\x1b[H{}", model.render(width, rate));
        {
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        if closed && drained {
            println!("campaign closed — {} scenarios done, {} failed", model.done, model.failed);
            return Ok(());
        }
    }
}

fn cmd_portal(flags: &Flags) -> Result<(), String> {
    let path = flags.value("--import").ok_or("portal needs --import FILE")?;
    let run: Option<u32> = flags.count("--run", 1)?;
    let portal = AcdcPortal::new();
    let n = portal.import_jsonl(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    eprintln!("loaded {n} records");
    let experiment = match flags.value("--experiment") {
        Some(id) => id.to_string(),
        None => portal
            .find("kind", "experiment")
            .first()
            .and_then(|v| {
                use sdl_lab::conf::ValueExt;
                v.opt_str("experiment_id").map(str::to_string)
            })
            .ok_or("no experiment records in file")?,
    };
    println!("{}", portal.summary_view(&experiment));
    if let Some(run) = run {
        println!("{}", portal.run_detail(&experiment, run));
    }
    Ok(())
}
