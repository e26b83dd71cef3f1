//! `compile`: repeated full compiles of a small CurFe MLP at the mature
//! `FaultModel::typical()` defect rate — placement, remap, ISPP
//! programming on the `par-exec` pool, wear, and predict. The chip's
//! write path, beside the read paths of the other workloads.

use std::time::Instant;

use imc_compile::image::MlpArch;
use imc_compile::pipeline::{compile, probe_inputs, CompileOptions, CompileOutput};
use imc_compile::programming::ProgramOptions;
use imc_compile::wear::WearLedger;
use imc_core::faults::FaultModel;
use neural::imc_exec::ImcDesign;
use neural::tensor::Tensor;

use crate::check;
use crate::report::{Checks, Tracer};
use crate::stats::{process_cpu_s, us, Round, SplitMix};
use crate::RunLog;

/// 64→32→10: 2,368 weights, 18,944 cells, about 0.1 s per compile on
/// a 2-core host, so a run holds well over a hundred compiles.
pub const ARCH: MlpArch = MlpArch {
    features: 64,
    hidden: 32,
    classes: 10,
};
/// Compiles per round, each with its own seeded weights, fault map and
/// programming variation.
const PER_ROUND: usize = 8;
const PROBES: usize = 32;
/// 16→8→4, compiled with fixed seeds for the per-round cell-accounting
/// audit: small enough (about 1% of a round) that the audit does not
/// crowd out the timed compiles.
const AUDIT_ARCH: MlpArch = MlpArch {
    features: 16,
    hidden: 8,
    classes: 4,
};

/// Seeded compile configurations, plus the fixed (seed-independent)
/// configuration of the per-round cell-accounting audit.
pub struct CompileBench {
    opts: Vec<CompileOptions>,
    audit: CompileOptions,
}

fn options(arch: MlpArch) -> CompileOptions {
    let mut o = CompileOptions::new(arch, ImcDesign::CurFe);
    o.fault_model = FaultModel::typical();
    o.probe_count = PROBES;
    o
}

fn seeded_options(rng: &mut SplitMix) -> CompileOptions {
    let mut o = options(ARCH);
    o.weight_seed = rng.next_u64();
    o.fault_seed = rng.next_u64();
    o.probe_seed = rng.next_u64();
    o.program = ProgramOptions::paper(rng.next_u64());
    o
}

/// Cells holding a '1' (pulse-programmed; '0' cells stay erased) in
/// the image's stored codes: one cell per bit of each 8-bit code, the
/// high nibble's two's-complement bits being the H4B cells.
fn non_erased_cells(out: &CompileOutput) -> u64 {
    out.image
        .layers
        .iter()
        .flat_map(|l| &l.stored)
        .map(|&w| u64::from((w as u8).count_ones()))
        .sum()
}

fn compile_once(o: &CompileOptions) -> Result<CompileOutput, String> {
    let mut ledger = WearLedger::fresh(o.geometry.banks);
    compile(o, &mut ledger).map_err(|e| format!("compile failed: {e}"))
}

/// Checks one compile's image: it validates, and the network a server
/// rebuilds from it reproduces the manifest's predicted probe logits
/// bit for bit.
fn image_ok(o: &CompileOptions, out: &CompileOutput) -> Result<(), String> {
    let img = &out.image;
    img.validate().map_err(|e| format!("validate: {e}"))?;
    let net = img.to_network().map_err(|e| format!("to_network: {e}"))?;
    let probes = probe_inputs(o.arch.features, o.probe_count, o.probe_seed);
    if probes.len() != img.manifest.predicted_logits.len() {
        return Err("manifest holds a different number of probe predictions".into());
    }
    for (i, (p, want)) in probes
        .iter()
        .zip(&img.manifest.predicted_logits)
        .enumerate()
    {
        let got = net.forward(&Tensor::from_vec(&[1, p.len()], p.clone()));
        if !check::same_bits(got.data(), want) {
            return Err(format!("probe {i}: served logits differ from the manifest"));
        }
    }
    Ok(())
}

/// The cell-accounting audit: `ProgramTotals::cells` must equal the
/// cells the benchmark counts as non-erased in the stored codes.
fn audit_ok(out: &CompileOutput) -> bool {
    out.totals.cells == non_erased_cells(out)
}

/// Builds the seeded configurations and warms up with one checked
/// compile (pool spawn and lazy tables are paid here, not in round 1).
pub fn setup(seed: u64, checks: &mut Checks) -> Result<CompileBench, String> {
    let mut rng = SplitMix::new(seed ^ 0xC0_4D11E);
    let opts: Vec<CompileOptions> = (0..PER_ROUND).map(|_| seeded_options(&mut rng)).collect();
    let warm = compile_once(&opts[0])?;
    checks.require(image_ok(&opts[0], &warm).is_ok(), || {
        "warm-up compile image check failed".into()
    });
    Ok(CompileBench {
        opts,
        audit: options(AUDIT_ARCH),
    })
}

/// Everything the traced run reports about a set of compiles.
pub struct CompileLog {
    pub outputs: Vec<CompileOutput>,
    pub busy_share: f64,
}

fn busy_ns() -> f64 {
    imc_obs::registry()
        .snapshot()
        .counter("par_exec_busy_ns_total")
        .unwrap_or(0) as f64
}

/// Runs whole rounds until `seconds` have passed (at least two). A round is
/// `PER_ROUND` timed compiles, checked after the round's clocks stop,
/// then one audit compile of the fixed configuration, untimed and
/// counted as one more operation.
pub fn run(
    b: &CompileBench,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
) -> Result<(RunLog, CompileLog), String> {
    let mut log = RunLog::default();
    let mut kept = Vec::new();
    let pool_width = par_exec::threads() as f64;
    let t_run = Instant::now();
    let (mut busy, mut busy_wall) = (0.0, 0.0);
    let mut i = 0usize;
    while i < 2 || t_run.elapsed().as_secs_f64() < seconds {
        tracer.enabled = trace && i % 2 == 1;
        let mut outs = Vec::with_capacity(PER_ROUND);
        let mut lat = Vec::with_capacity(PER_ROUND);
        let busy0 = busy_ns();
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        for (k, o) in b.opts.iter().enumerate() {
            let s = Instant::now();
            let out = tracer.span("imc_compile.compile", (i * PER_ROUND + k) as u64, || {
                compile_once(o)
            })?;
            lat.push(us(s.elapsed()));
            outs.push(out);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        busy += busy_ns() - busy0;
        busy_wall += wall_s;
        let mut ok_lat = Vec::with_capacity(PER_ROUND);
        let mut cells = 0u64;
        for ((o, out), l) in b.opts.iter().zip(&outs).zip(&lat) {
            cells += non_erased_cells(out);
            match image_ok(o, out) {
                Ok(()) => ok_lat.push(*l),
                Err(e) => eprintln!("imcbench: compile check failed: {e}"),
            }
        }
        let failed = PER_ROUND - ok_lat.len();
        let round = Round {
            ops: PER_ROUND,
            work: cells as f64,
            wall_s,
            cpu_s,
            lat_us: ok_lat,
        };
        log.push(round, failed, tracer.enabled);
        let audit = compile_once(&b.audit)?;
        log.attempted += 1;
        if !audit_ok(&audit) {
            if i == 0 {
                eprintln!(
                    "imcbench: audit failed: ProgramTotals::cells = {}, non-erased stored cells = {}",
                    audit.totals.cells,
                    non_erased_cells(&audit)
                );
            }
            log.failed += 1;
        }
        if i == 0 {
            kept = outs;
        }
        i += 1;
    }
    tracer.enabled = false;
    let busy_share = busy / (busy_wall * 1e9 * pool_width);
    Ok((
        log,
        CompileLog {
            outputs: kept,
            busy_share,
        },
    ))
}
