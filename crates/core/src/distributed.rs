//! Multi-process campaign execution: shard specs, shard files, and the
//! deterministic file-level merge.
//!
//! The master ([`crate::Campaign::run_distributed`]) runs the same
//! serial analysis as an in-process campaign, but routes every
//! [`crate::Scheduling::Stealing`] probing phase through a
//! [`DistDispatcher`]: the phase's task queue is partitioned over `N`
//! worker *processes* by owning vantage point (`vp % workers`), each
//! worker receives one **shard-spec file** (`WHSP`), executes its
//! subset with the stock stealing executor, and writes one canonical
//! **shard file** (`WHSH`) back. The master validates and merges the
//! shard files in worker order — a pure file-level merge with no
//! shared memory at all.
//!
//! # Why the merge is byte-identical to an in-process run
//!
//! * A worker's queue is the master's queue filtered by `vp % workers`,
//!   preserving order — so every vantage point sees exactly the task
//!   sequence it would have seen in process.
//! * Each task runs in a hermetic session whose RNG stream is a pure
//!   function of `(campaign_seed, vp, task key)`
//!   ([`wormhole_net::trace_seed`]); the worker re-derives the same
//!   keys from the same phase tag, so a task's probe sequence is
//!   independent of which *process* ran it.
//! * Every payload crosses the process boundary through the
//!   [`wormhole_net::wire`] codec, which carries floats as raw IEEE
//!   bits — a decoded result is *equal* to the encoded one.
//!
//! # Failure model
//!
//! A worker that dies, writes a corrupt file, or never writes one at
//! all degrades **only its own vantage points**: the master records the
//! worker in [`PhaseShardAccount::missing`] and synthesizes `Err`
//! entries for its tasked VPs, which flow into the campaign's existing
//! degraded-shard handling ([`crate::DegradedShard`]). The merged
//! result for every surviving VP is byte-identical to a run where the
//! worker never died. The `A311` audit rule cross-checks the
//! accounting kept in [`DistSummary`].

use crate::reveal::{
    AbandonReason, Confidence, MissingPart, RevealOpts, RevealStep, RevealedHop, RevealedTunnel,
    RevelationOutcome, Veracity,
};
use crate::shard::{self, MergeScratch, StealTask};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use wormhole_net::wire::{checksum, Reader, Wire, WireError};
use wormhole_net::{
    trace_seed, Addr, ControlPlane, EngineStats, FaultPlan, Network, ProbeState, RouterId,
    SubstrateRef,
};
use wormhole_probe::{Session, TracerouteOpts};

/// Shard-spec file magic (`WHSP`): what the master hands each worker.
const SPEC_MAGIC: [u8; 4] = *b"WHSP";
/// Shard file magic (`WHSH`): what each worker hands back.
const SHARD_MAGIC: [u8; 4] = *b"WHSH";
/// On-disk format version shared by both file kinds.
const VERSION: u32 = 2;

/// The valid shard-spec layout, quoted by every worker-side decode
/// error so a malformed spec names what a well-formed one contains.
const SPEC_FIELDS: &str = "a shard spec is: magic \"WHSP\", version, phase tag \
     (1=bootstrap 2=probe 3=fingerprint 4=revelation), worker, workers, n_vps, seed, \
     substrate token, fault plan, traceroute opts, \
     chaos-abort flag, output path, phase payload (tasks)";

// ---------------------------------------------------------------------------
// Wire codecs for the revelation payload (the other phases ship probe-
// layer records whose codecs live in `wormhole_probe::wire`).
// ---------------------------------------------------------------------------

impl Wire for RevealOpts {
    fn put(&self, out: &mut Vec<u8>) {
        self.max_steps.put(out);
        self.paris_check.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealOpts, WireError> {
        Ok(RevealOpts {
            max_steps: Wire::take(r)?,
            paris_check: Wire::take(r)?,
        })
    }
}

impl Wire for RevealedHop {
    fn put(&self, out: &mut Vec<u8>) {
        self.addr.put(out);
        self.labeled.put(out);
        self.rtt_ms.put(out);
        self.truth.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealedHop, WireError> {
        Ok(RevealedHop {
            addr: Wire::take(r)?,
            labeled: Wire::take(r)?,
            rtt_ms: Wire::take(r)?,
            truth: Wire::take(r)?,
        })
    }
}

impl Wire for RevealStep {
    fn put(&self, out: &mut Vec<u8>) {
        self.target.put(out);
        self.new_hops.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealStep, WireError> {
        Ok(RevealStep {
            target: Wire::take(r)?,
            new_hops: Wire::take(r)?,
        })
    }
}

impl Wire for RevealedTunnel {
    fn put(&self, out: &mut Vec<u8>) {
        self.ingress.put(out);
        self.egress.put(out);
        self.target.put(out);
        self.steps.put(out);
        self.extra_probes.put(out);
        self.revisits.put(out);
        self.stars.put(out);
        self.retrace_mismatch.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealedTunnel, WireError> {
        Ok(RevealedTunnel {
            ingress: Wire::take(r)?,
            egress: Wire::take(r)?,
            target: Wire::take(r)?,
            steps: Wire::take(r)?,
            extra_probes: Wire::take(r)?,
            revisits: Wire::take(r)?,
            stars: Wire::take(r)?,
            retrace_mismatch: Wire::take(r)?,
        })
    }
}

impl Wire for AbandonReason {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            AbandonReason::IngressNotObserved => 0,
            AbandonReason::ProbeBudget => 1,
            AbandonReason::WorkerPanicked => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<AbandonReason, WireError> {
        Ok(match u8::take(r)? {
            0 => AbandonReason::IngressNotObserved,
            1 => AbandonReason::ProbeBudget,
            2 => AbandonReason::WorkerPanicked,
            _ => return Err(WireError::Corrupt("abandon reason tag")),
        })
    }
}

impl Wire for MissingPart {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            MissingPart::IngressLostMidway => 0,
            MissingPart::StepLimit => 1,
            MissingPart::ProbeBudget => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<MissingPart, WireError> {
        Ok(match u8::take(r)? {
            0 => MissingPart::IngressLostMidway,
            1 => MissingPart::StepLimit,
            2 => MissingPart::ProbeBudget,
            _ => return Err(WireError::Corrupt("missing part tag")),
        })
    }
}

impl Wire for Confidence {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Confidence::Low => 0,
            Confidence::Medium => 1,
            Confidence::High => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Confidence, WireError> {
        Ok(match u8::take(r)? {
            0 => Confidence::Low,
            1 => Confidence::Medium,
            2 => Confidence::High,
            _ => return Err(WireError::Corrupt("confidence tag")),
        })
    }
}

impl Wire for Veracity {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Veracity::Corroborated => 0,
            Veracity::Unverified => 1,
            Veracity::Contradicted => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Veracity, WireError> {
        Ok(match u8::take(r)? {
            0 => Veracity::Corroborated,
            1 => Veracity::Unverified,
            2 => Veracity::Contradicted,
            _ => return Err(WireError::Corrupt("veracity tag")),
        })
    }
}

impl Wire for RevelationOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RevelationOutcome::Complete {
                tunnel,
                confidence,
                veracity,
            } => {
                0u8.put(out);
                tunnel.put(out);
                confidence.put(out);
                veracity.put(out);
            }
            RevelationOutcome::Partial {
                tunnel,
                missing,
                confidence,
                veracity,
            } => {
                1u8.put(out);
                tunnel.put(out);
                missing.put(out);
                confidence.put(out);
                veracity.put(out);
            }
            RevelationOutcome::Abandoned { reason } => {
                2u8.put(out);
                reason.put(out);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<RevelationOutcome, WireError> {
        Ok(match u8::take(r)? {
            0 => RevelationOutcome::Complete {
                tunnel: Wire::take(r)?,
                confidence: Wire::take(r)?,
                veracity: Wire::take(r)?,
            },
            1 => RevelationOutcome::Partial {
                tunnel: Wire::take(r)?,
                missing: Wire::take(r)?,
                confidence: Wire::take(r)?,
                veracity: Wire::take(r)?,
            },
            2 => RevelationOutcome::Abandoned {
                reason: Wire::take(r)?,
            },
            _ => return Err(WireError::Corrupt("revelation outcome tag")),
        })
    }
}

// ---------------------------------------------------------------------------
// Master-side types.
// ---------------------------------------------------------------------------

/// How [`crate::Campaign::run_distributed`] spawns and merges worker
/// processes.
#[derive(Clone, Debug)]
pub struct DistributedOpts {
    /// Worker processes to partition each phase's queue across.
    pub workers: usize,
    /// The worker command line (program plus leading arguments); the
    /// dispatcher appends `campaign-worker --shard-spec <file>`.
    pub worker_cmd: Vec<String>,
    /// Opaque substrate handle the worker binary resolves back to a
    /// `(network, control plane, vantage points)` triple — e.g.
    /// `"tenfold:8"` for the CLI's scale/seed resolver. The master
    /// never ships the substrate itself; both sides regenerate it
    /// deterministically.
    pub substrate_token: String,
    /// Directory for spec and shard files.
    pub work_dir: PathBuf,
    /// Keep spec/shard files after the merge (for CI artifacts and
    /// debugging); default behavior removes them.
    pub keep_files: bool,
    /// Chaos hook: tell this worker index to abort (`SIGABRT`-style,
    /// no shard file) during the probe phase, exercising the
    /// missing-shard degradation path. Test/CI use only.
    pub chaos_abort_worker: Option<usize>,
}

/// Why a distributed run could not start or make progress. Worker
/// degradation is **not** an error — a lost worker degrades its own
/// shards and the campaign completes.
#[derive(Debug)]
pub enum DistError {
    /// Distributed execution requires [`crate::Scheduling::Stealing`]:
    /// only per-task hermetic sessions make a task's result independent
    /// of the process that ran it.
    NotStealing,
    /// `workers` was zero or `worker_cmd` was empty.
    NoWorkers,
    /// The work directory could not be created or written.
    Io(std::io::Error),
    /// A worker could not decode its shard-spec file; the reason quotes
    /// the valid field layout.
    Spec {
        /// The spec file the worker was given.
        path: PathBuf,
        /// What failed, plus the valid shard-spec fields.
        reason: String,
    },
    /// A worker could not resolve its substrate token.
    Substrate(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NotStealing => {
                write!(f, "distributed campaigns require stealing scheduling")
            }
            DistError::NoWorkers => write!(f, "need at least one worker and a worker command"),
            DistError::Io(e) => write!(f, "distributed work dir: {e}"),
            DistError::Spec { path, reason } => {
                write!(f, "shard spec {}: {reason}", path.display())
            }
            DistError::Substrate(e) => write!(f, "worker substrate: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> DistError {
        DistError::Io(e)
    }
}

/// Shard accounting for one dispatched phase: every spawned worker is
/// either received or missing, and the probes its shard file reported
/// are summed for the `A311` conservation check.
#[derive(Clone, Debug)]
pub struct PhaseShardAccount {
    /// The phase label (`bootstrap`, `probe`, `fingerprint`,
    /// `revelation`) — matching [`crate::DegradedShard::phase`].
    pub phase: &'static str,
    /// Workers actually spawned (workers whose queue slice was empty
    /// are skipped, not spawned).
    pub dispatched: usize,
    /// Shard files received, validated, and merged.
    pub received: usize,
    /// Workers whose shard never arrived (died, corrupt file, bad
    /// checksum, wrong identity); their tasked VPs were degraded.
    pub missing: Vec<usize>,
    /// Worker indices that appeared more than once among the received
    /// shards — impossible in a healthy run, audited by `A311`.
    pub duplicates: Vec<usize>,
    /// Sum of per-VP probe counts over the received shard files.
    pub shard_probes: u64,
}

/// Cross-process accounting of a whole distributed run, attached to
/// [`crate::CampaignResult::dist`] (and excluded from the report —
/// the report must stay byte-identical to an in-process run).
#[derive(Clone, Debug, Default)]
pub struct DistSummary {
    /// Worker processes the run partitioned work across.
    pub workers: usize,
    /// One entry per dispatched phase, in phase order.
    pub phases: Vec<PhaseShardAccount>,
}

/// One decoded shard file.
#[derive(Debug)]
struct ShardFile<R> {
    worker: usize,
    results: Vec<Result<Vec<R>, String>>,
    probes: Vec<u64>,
    stats: EngineStats,
}

/// Routes the campaign's stealing phases to worker processes. Owned by
/// [`crate::Campaign::run_distributed`] for the duration of one run.
pub(crate) struct DistDispatcher<'o> {
    opts: &'o DistributedOpts,
    n_vps: usize,
    seed: u64,
    faults: FaultPlan,
    trace_opts: TracerouteOpts,
    summary: DistSummary,
}

impl<'o> DistDispatcher<'o> {
    /// Validates the options and prepares the work directory.
    pub(crate) fn new(
        opts: &'o DistributedOpts,
        n_vps: usize,
        seed: u64,
        faults: FaultPlan,
        trace_opts: TracerouteOpts,
    ) -> Result<DistDispatcher<'o>, DistError> {
        if opts.workers == 0 || opts.worker_cmd.is_empty() {
            return Err(DistError::NoWorkers);
        }
        std::fs::create_dir_all(&opts.work_dir)?;
        Ok(DistDispatcher {
            opts,
            n_vps,
            seed,
            faults,
            trace_opts,
            summary: DistSummary {
                workers: opts.workers,
                phases: Vec::new(),
            },
        })
    }

    /// The run's accounting, consumed after the last phase.
    pub(crate) fn into_summary(self) -> DistSummary {
        self.summary
    }

    /// Dispatches one phase: partition `queue` by owning VP, spawn one
    /// worker process per non-empty partition, then merge the shard
    /// files back into the exact shape [`shard::run_stealing`] returns.
    /// `extra` carries phase-specific context (the revelation phase's
    /// options and discovered set), spliced into each spec verbatim.
    pub(crate) fn dispatch<T, R>(
        &mut self,
        tag: u8,
        label: &'static str,
        queue: &[StealTask<T>],
        extra: &[u8],
    ) -> shard::StealOutput<R>
    where
        T: Copy + Wire,
        R: Wire,
    {
        let workers = self.opts.workers;
        let mut buckets: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
        for t in queue {
            buckets[t.vp % workers].push((t.vp, t.task));
        }
        let mut out: Vec<Result<Vec<R>, String>> =
            (0..self.n_vps).map(|_| Ok(Vec::new())).collect();
        let mut probes = vec![0u64; self.n_vps];
        let mut stats = EngineStats::default();
        let mut account = PhaseShardAccount {
            phase: label,
            dispatched: 0,
            received: 0,
            missing: Vec::new(),
            duplicates: Vec::new(),
            shard_probes: 0,
        };
        // Spawn every worker first, then join: the partitions run as
        // concurrent OS processes even on a single-threaded master.
        let mut children: Vec<(usize, PathBuf, PathBuf, Result<Child, String>)> = Vec::new();
        for (w, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            account.dispatched += 1;
            let spec_path = self
                .opts
                .work_dir
                .join(format!("phase{tag}-worker{w}.spec"));
            let shard_path = self
                .opts
                .work_dir
                .join(format!("phase{tag}-worker{w}.shard"));
            let chaos = tag == 2 && self.opts.chaos_abort_worker == Some(w);
            let spec = self.encode_spec(tag, w, bucket, extra, &shard_path, chaos);
            let spawn = std::fs::write(&spec_path, &spec)
                .map_err(|e| format!("write spec: {e}"))
                .and_then(|()| {
                    Command::new(&self.opts.worker_cmd[0])
                        .args(&self.opts.worker_cmd[1..])
                        .arg("campaign-worker")
                        .arg("--shard-spec")
                        .arg(&spec_path)
                        .stdin(Stdio::null())
                        .spawn()
                        .map_err(|e| format!("spawn worker: {e}"))
                });
            children.push((w, spec_path, shard_path, spawn));
        }
        let mut seen: HashSet<usize> = HashSet::new();
        for (w, spec_path, shard_path, spawn) in children {
            let shard = spawn
                .and_then(|mut child| {
                    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
                    if status.success() {
                        Ok(())
                    } else {
                        Err(format!("worker exited with {status}"))
                    }
                })
                .and_then(|()| {
                    let bytes =
                        std::fs::read(&shard_path).map_err(|e| format!("read shard file: {e}"))?;
                    decode_shard::<R>(&bytes, tag, w, self.n_vps)
                });
            match shard {
                Ok(file) => {
                    if !seen.insert(file.worker) {
                        account.duplicates.push(file.worker);
                    }
                    account.received += 1;
                    account.shard_probes += file.probes.iter().sum::<u64>();
                    let mut results = file.results;
                    for vp in (w..self.n_vps).step_by(workers) {
                        out[vp] = std::mem::replace(&mut results[vp], Ok(Vec::new()));
                        probes[vp] += file.probes[vp];
                    }
                    stats.merge(&file.stats);
                }
                Err(reason) => {
                    account.missing.push(w);
                    // Degrade exactly the VPs this worker had tasks
                    // for; untasked VPs keep their empty Ok shard,
                    // matching the in-process executor.
                    for &(vp, _) in &buckets[w] {
                        if out[vp].is_ok() {
                            out[vp] = Err(format!("worker {w} shard lost: {reason}"));
                        }
                    }
                }
            }
            if !self.opts.keep_files {
                let _ = std::fs::remove_file(&spec_path);
                let _ = std::fs::remove_file(&shard_path);
            }
        }
        self.summary.phases.push(account);
        (out, probes, stats)
    }

    /// Encodes one worker's shard-spec file.
    fn encode_spec<T: Wire>(
        &self,
        tag: u8,
        worker: usize,
        tasks: &[(usize, T)],
        extra: &[u8],
        output: &Path,
        chaos_abort: bool,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SPEC_MAGIC);
        VERSION.put(&mut out);
        tag.put(&mut out);
        worker.put(&mut out);
        self.opts.workers.put(&mut out);
        self.n_vps.put(&mut out);
        self.seed.put(&mut out);
        self.opts.substrate_token.put(&mut out);
        self.faults.put(&mut out);
        self.trace_opts.put(&mut out);
        chaos_abort.put(&mut out);
        output.to_string_lossy().into_owned().put(&mut out);
        out.extend_from_slice(extra);
        (tasks.len() as u64).put(&mut out);
        for (vp, task) in tasks {
            vp.put(&mut out);
            task.put(&mut out);
        }
        let c = checksum(&out);
        c.put(&mut out);
        out
    }
}

/// Validates and decodes one shard file; any failure is a plain-string
/// reason the dispatcher turns into a missing shard, never a panic.
fn decode_shard<R: Wire>(
    bytes: &[u8],
    tag: u8,
    worker: usize,
    n_vps: usize,
) -> Result<ShardFile<R>, String> {
    if bytes.len() < SHARD_MAGIC.len() + 12 {
        return Err("shard file truncated".to_string());
    }
    if bytes[..4] != SHARD_MAGIC {
        return Err("bad shard magic (expected WHSH)".to_string());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if checksum(body) != declared {
        return Err("shard checksum mismatch".to_string());
    }
    let mut r = Reader::new(&body[4..]);
    let decode = |e: WireError| format!("shard decode: {e}");
    let version = u32::take(&mut r).map_err(decode)?;
    if version != VERSION {
        return Err(format!("shard version {version} (expected {VERSION})"));
    }
    let file_tag = u8::take(&mut r).map_err(decode)?;
    let file_worker = usize::take(&mut r).map_err(decode)?;
    let results = Vec::<Result<Vec<R>, String>>::take(&mut r).map_err(decode)?;
    let probes = Vec::<u64>::take(&mut r).map_err(decode)?;
    let stats = EngineStats::take(&mut r).map_err(decode)?;
    if !r.is_empty() {
        return Err("trailing bytes after shard payload".to_string());
    }
    if file_tag != tag {
        return Err(format!("shard phase tag {file_tag} (expected {tag})"));
    }
    if file_worker != worker {
        return Err(format!(
            "shard from worker {file_worker} (expected {worker})"
        ));
    }
    if results.len() != n_vps || probes.len() != n_vps {
        return Err(format!(
            "shard carries {} result / {} probe lanes (expected {n_vps})",
            results.len(),
            probes.len()
        ));
    }
    Ok(ShardFile {
        worker: file_worker,
        results,
        probes,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// The substrate a worker resolves from its spec's token: the same
/// network, control plane, and vantage-point list the master holds.
pub struct WorkerSubstrate {
    /// The network.
    pub net: Network,
    /// Its control plane.
    pub cp: ControlPlane,
    /// The vantage points, in the master's order.
    pub vps: Vec<RouterId>,
}

/// Everything a worker needs from its spec header before the phase
/// payload.
struct SpecHeader {
    tag: u8,
    worker: usize,
    n_vps: usize,
    seed: u64,
    token: String,
    faults: FaultPlan,
    trace_opts: TracerouteOpts,
    chaos_abort: bool,
    output: PathBuf,
}

/// How a worker turns a spec's substrate token back into a substrate.
pub type SubstrateResolver = dyn Fn(&str) -> Result<WorkerSubstrate, String>;

/// Runs one worker process end to end: decode the spec, resolve the
/// substrate token through `resolve`, execute the phase's task subset
/// serially with the stock stealing executor, and write the shard file
/// atomically.
///
/// The caller (the CLI's `campaign-worker` subcommand) supplies
/// `resolve` so this crate stays independent of how substrates are
/// named; any `Err` it returns surfaces as [`DistError::Substrate`].
pub fn worker_main(spec_path: &Path, resolve: &SubstrateResolver) -> Result<(), DistError> {
    let bytes = std::fs::read(spec_path)?;
    let spec_err = |reason: String| DistError::Spec {
        path: spec_path.to_path_buf(),
        reason: format!("{reason}; {SPEC_FIELDS}"),
    };
    if bytes.len() < SPEC_MAGIC.len() + 12 {
        return Err(spec_err("file truncated".to_string()));
    }
    if bytes[..4] != SPEC_MAGIC {
        return Err(spec_err("bad magic (expected WHSP)".to_string()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if checksum(body) != declared {
        return Err(spec_err("checksum mismatch".to_string()));
    }
    let mut r = Reader::new(&body[4..]);
    let version = u32::take(&mut r).map_err(|e| spec_err(e.to_string()))?;
    if version != VERSION {
        return Err(spec_err(format!("version {version} (expected {VERSION})")));
    }
    let header = (|| -> Result<SpecHeader, WireError> {
        Ok(SpecHeader {
            tag: Wire::take(&mut r)?,
            worker: Wire::take(&mut r)?,
            n_vps: {
                let _workers = usize::take(&mut r)?;
                Wire::take(&mut r)?
            },
            seed: Wire::take(&mut r)?,
            token: Wire::take(&mut r)?,
            faults: Wire::take(&mut r)?,
            trace_opts: Wire::take(&mut r)?,
            chaos_abort: Wire::take(&mut r)?,
            output: PathBuf::from(String::take(&mut r)?),
        })
    })()
    .map_err(|e| spec_err(e.to_string()))?;
    if header.chaos_abort {
        // The chaos hook dies the hard way — no shard file, no exit
        // status, exactly what a crashed worker looks like.
        std::process::abort();
    }
    let ws = resolve(&header.token).map_err(DistError::Substrate)?;
    if ws.vps.len() != header.n_vps {
        return Err(DistError::Substrate(format!(
            "substrate has {} vantage points, spec expects {}",
            ws.vps.len(),
            header.n_vps
        )));
    }
    let shard_bytes = match header.tag {
        1 => run_phase(
            &ws,
            &header,
            &mut r,
            |&(_, t): &(usize, Addr)| crate::campaign::steal_key(1, u64::from(t.0), 0),
            |sess, (g, t)| (g, sess.traceroute(t).addr_path()),
        ),
        2 => run_phase(
            &ws,
            &header,
            &mut r,
            |&(_, t): &(usize, Addr)| crate::campaign::steal_key(2, u64::from(t.0), 0),
            |sess, (g, t)| (g, sess.traceroute(t)),
        ),
        3 => run_phase(
            &ws,
            &header,
            &mut r,
            |&(_, a): &(usize, Addr)| crate::campaign::steal_key(3, u64::from(a.0), 0),
            |sess, (g, a)| (g, a, sess.ping(a)),
        ),
        4 => {
            let ctx = (|| -> Result<(RevealOpts, bool, Vec<Addr>), WireError> {
                Ok((
                    Wire::take(&mut r)?,
                    Wire::take(&mut r)?,
                    Wire::take(&mut r)?,
                ))
            })()
            .map_err(|e| spec_err(e.to_string()))?;
            let (reveal_opts, fingerprint, discovered_list) = ctx;
            let discovered: std::collections::BTreeSet<Addr> =
                discovered_list.into_iter().collect();
            run_phase(
                &ws,
                &header,
                &mut r,
                |&(_, x, y, _): &(usize, Addr, Addr, Addr)| {
                    crate::campaign::steal_key(4, u64::from(x.0), u64::from(y.0))
                },
                |sess, (g, x, y, d)| {
                    crate::campaign::reveal_one(
                        sess,
                        g,
                        x,
                        y,
                        d,
                        &reveal_opts,
                        &discovered,
                        fingerprint,
                    )
                },
            )
        }
        t => Err(spec_err(format!("unknown phase tag {t}"))),
    }?;
    // Atomic publish: a worker killed mid-write leaves only a tmp file
    // (or a truncated one whose checksum fails), never a silently
    // partial shard.
    let tmp = header.output.with_extension("shard.tmp");
    std::fs::write(&tmp, &shard_bytes)?;
    std::fs::rename(&tmp, &header.output)?;
    Ok(())
}

/// Decodes the spec's task list, rebuilds the steal queue with the
/// phase's key derivation, runs it serially, and encodes the shard
/// file. Shared by all four phase tags.
fn run_phase<T, R, K, F>(
    ws: &WorkerSubstrate,
    header: &SpecHeader,
    r: &mut Reader<'_>,
    key_of: K,
    f: F,
) -> Result<Vec<u8>, DistError>
where
    T: Copy + Sync + Wire,
    R: Send + Wire,
    K: Fn(&T) -> u64,
    F: for<'n> Fn(&mut Session<'n>, T) -> R + Sync,
{
    let tasks = Vec::<(usize, T)>::take(r).map_err(|e| DistError::Spec {
        path: header.output.clone(),
        reason: format!("task payload: {e}; {SPEC_FIELDS}"),
    })?;
    if !r.is_empty() {
        return Err(DistError::Spec {
            path: header.output.clone(),
            reason: format!("trailing bytes after task payload; {SPEC_FIELDS}"),
        });
    }
    let sub = SubstrateRef::new(&ws.net, &ws.cp);
    let make_session = |vp: usize, key: u64| {
        let state = ProbeState::new(
            header.faults.clone(),
            trace_seed(header.seed, vp as u64, key),
        );
        let mut s = Session::over(sub, ws.vps[vp], state);
        s.set_opts(header.trace_opts.clone());
        s
    };
    let queue: Vec<StealTask<T>> = tasks
        .into_iter()
        .map(|(vp, task)| StealTask {
            vp,
            key: key_of(&task),
            task,
        })
        .collect();
    let mut scratch = MergeScratch::new(header.n_vps);
    let (results, probes, stats) =
        shard::run_stealing(header.n_vps, queue, 1, 1, &mut scratch, &make_session, &f);
    let mut out = Vec::new();
    out.extend_from_slice(&SHARD_MAGIC);
    VERSION.put(&mut out);
    header.tag.put(&mut out);
    header.worker.put(&mut out);
    results.put(&mut out);
    probes.put(&mut out);
    stats.put(&mut out);
    let c = checksum(&out);
    c.put(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::wire::{from_bytes, to_bytes};

    /// The reveal types carry no `PartialEq`, so round-trip tests
    /// compare re-encoded bytes: decode(encode(v)) must re-encode to
    /// the same bytes, which is the property the file merge needs.
    fn byte_stable<T: Wire>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(to_bytes(&back), bytes, "re-encode changed the bytes");
    }

    fn sample_tunnel() -> RevealedTunnel {
        RevealedTunnel {
            ingress: Addr(10),
            egress: Addr(20),
            target: Addr(30),
            steps: vec![
                RevealStep {
                    target: Addr(21),
                    new_hops: vec![
                        RevealedHop {
                            addr: Addr(11),
                            labeled: true,
                            rtt_ms: Some(4.25),
                            truth: Some(RouterId(7)),
                        },
                        RevealedHop {
                            addr: Addr(12),
                            labeled: false,
                            rtt_ms: None,
                            truth: None,
                        },
                    ],
                },
                RevealStep {
                    target: Addr(22),
                    new_hops: Vec::new(),
                },
            ],
            extra_probes: 99,
            revisits: 2,
            stars: 1,
            retrace_mismatch: true,
        }
    }

    #[test]
    fn revelation_outcomes_are_byte_stable() {
        byte_stable(&RevelationOutcome::Complete {
            tunnel: sample_tunnel(),
            confidence: Confidence::High,
            veracity: Veracity::Corroborated,
        });
        byte_stable(&RevelationOutcome::Partial {
            tunnel: sample_tunnel(),
            missing: MissingPart::StepLimit,
            confidence: Confidence::Medium,
            veracity: Veracity::Contradicted,
        });
        byte_stable(&RevelationOutcome::Abandoned {
            reason: AbandonReason::WorkerPanicked,
        });
        byte_stable(&RevealOpts {
            max_steps: 5,
            paris_check: true,
        });
    }

    #[test]
    fn bad_revelation_tags_are_corrupt() {
        for bytes in [[9u8], [3u8]] {
            assert!(from_bytes::<Confidence>(&bytes).is_err());
            assert!(from_bytes::<Veracity>(&bytes).is_err());
            assert!(from_bytes::<MissingPart>(&bytes).is_err());
            assert!(from_bytes::<AbandonReason>(&bytes).is_err());
            assert!(from_bytes::<RevelationOutcome>(&bytes).is_err());
        }
    }

    #[test]
    fn shard_files_round_trip_and_reject_corruption() {
        let results: Vec<Result<Vec<(usize, u64)>, String>> = vec![
            Ok(vec![(0, 7), (2, 9)]),
            Err("worker panicked".to_string()),
            Ok(Vec::new()),
        ];
        let probes = vec![3u64, 1, 0];
        let stats = EngineStats::default();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SHARD_MAGIC);
        VERSION.put(&mut bytes);
        2u8.put(&mut bytes);
        1usize.put(&mut bytes);
        results.put(&mut bytes);
        probes.put(&mut bytes);
        stats.put(&mut bytes);
        let c = checksum(&bytes);
        c.put(&mut bytes);

        let file = decode_shard::<(usize, u64)>(&bytes, 2, 1, 3).expect("valid shard");
        assert_eq!(file.worker, 1);
        assert_eq!(file.probes, probes);
        assert_eq!(file.results[0], Ok(vec![(0, 7), (2, 9)]));
        assert!(file.results[1].is_err());

        // Wrong identity, wrong phase, wrong lane count: all rejected.
        assert!(decode_shard::<(usize, u64)>(&bytes, 2, 0, 3).is_err());
        assert!(decode_shard::<(usize, u64)>(&bytes, 1, 1, 3).is_err());
        assert!(decode_shard::<(usize, u64)>(&bytes, 2, 1, 4).is_err());
        // A flipped byte fails the trailing checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let err = decode_shard::<(usize, u64)>(&corrupt, 2, 1, 3).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        // Truncation too.
        assert!(decode_shard::<(usize, u64)>(&bytes[..bytes.len() - 9], 2, 1, 3).is_err());
    }

    #[test]
    fn worker_rejects_a_malformed_spec_listing_the_fields() {
        let dir = std::env::temp_dir().join(format!("wormhole-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.spec");
        std::fs::write(&path, b"not a spec at all, far too short to parse").unwrap();
        let err =
            worker_main(&path, &|_| Err("resolver must not be reached".to_string())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("WHSP"), "{msg}");
        assert!(msg.contains("substrate token"), "{msg}");
        assert!(msg.contains("phase tag"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
