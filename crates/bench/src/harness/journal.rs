//! The write-ahead run journal: crash-safe memoization of sweep cells.
//!
//! A killed or OOM'd sweep process used to lose every completed cell.
//! The journal closes that gap: each finished cell's [`RunRecord`] is
//! appended (and fsynced) as **one canonical JSON line** keyed by its
//! [`CellKey`] — digest plus the full canonical cell identity — so
//! [`Sweep::resume`](crate::harness::Sweep::resume) can replay the
//! file, skip completed cells, and produce final CSV/JSON output
//! byte-identical to an uninterrupted run. The same line format and
//! writer back the persistent [`RunCache`](crate::harness::RunCache).
//!
//! # Crash model
//!
//! * **Appends** go straight to the journal file followed by
//!   `sync_data`, so a SIGKILL can lose at most the line being written —
//!   which then survives as a *truncated final line*. Replay tolerates
//!   it (skip-and-warn); every earlier line is durable.
//! * **Rotation/compaction** rewrites the whole journal through a
//!   sibling temp file, fsyncs it, and atomically renames it over the
//!   journal — a crash mid-compaction leaves either the old or the new
//!   file, never a torn one. This is the only non-append write path, and
//!   the sigma-lint D6 rule holds the harness to it.
//! * **Corruption** (garbage bytes, duplicate keys, stale schema
//!   versions, keys from a different suite) is skipped line-by-line with
//!   a warning; one bad line never poisons the rest of the journal.
//!
//! # Key canonicalization
//!
//! Cells are addressed by [`CellKey`] (see
//! [`cache`](crate::harness::cache)): a canonical string over the full
//! cell identity — key layout revision, record schema, engine slug and
//! fingerprint, fault plan, workload name + shape + operand density
//! *bit patterns* (exact, not formatted), and the materialized seed —
//! digested to 128 bits by two independently-salted hand-rolled FNV-1a
//! 64 halves (no external hash crates, and deliberately *not*
//! `std::collections`' `RandomState`, which the D1 determinism lints
//! ban). Every line stores the canonical string alongside the digest
//! and lookups compare the *string*, so a digest collision degrades to
//! a rerun, never a silently aliased record.

use crate::harness::cache::CellKey;
use crate::harness::record::{RunRecord, RunStatus};
use sigma_telemetry::json::{self, quote, Json};
use sigma_telemetry::{FlightRecorder, Stage};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Version stamped into every journal line; replay skips other versions.
///
/// v2 (the cache PR) widened the key to 128 bits and added the stored
/// `"cell"` canonical identity; v1 lines replay as stale-schema warnings
/// and their cells rerun — the v1 key omitted the record schema and
/// engine fingerprint, so replaying them as hits would be exactly the
/// staleness bug the widened key exists to prevent.
pub const JOURNAL_SCHEMA: u32 = 2;

/// FNV-1a 64-bit over `bytes` — deterministic across platforms and runs.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Atomically replaces the file at `path` with `bytes`: write a
/// `.tmp`-suffixed sibling, fsync it, rename it over `path`, then
/// best-effort fsync the parent directory so the rename itself is
/// durable. A crash at any point leaves either the old file or the new
/// one, never a torn mix — this is the one non-append write primitive
/// the sigma-lint D6 rule holds harness persistence code to, shared by
/// journal compaction, figure CSV/JSON emission, and the flight
/// recorder's event log.
///
/// # Errors
///
/// Propagates the I/O error when the temp write or rename fails.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut tmp_file = File::create(&tmp)?;
        tmp_file.write_all(bytes)?;
        tmp_file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Renders one journal/cache line: schema, digest, canonical identity,
/// record.
fn render_line(key: &CellKey, record: &RunRecord) -> String {
    format!(
        "{{\"schema\": {JOURNAL_SCHEMA}, \"key\": \"{}\", \"cell\": {}, \"record\": {}}}\n",
        key.hex(),
        quote(key.canonical()),
        record.to_json()
    )
}

/// Append-side handle on a journal file.
///
/// Lines are appended with `sync_data` after each write; see the module
/// docs for the crash model.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: File,
    appends: u64,
    recorder: FlightRecorder,
}

impl JournalWriter {
    /// Opens (or creates) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be opened.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { path: path.to_path_buf(), file, appends: 0, recorder: FlightRecorder::off() })
    }

    /// Attaches a flight recorder; appends and fsyncs get timed as
    /// [`Stage::JournalAppend`] / [`Stage::JournalFsync`] spans.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = recorder;
    }

    /// Appends one completed cell as a canonical JSON line and fsyncs.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the write or sync fails.
    pub fn append(&mut self, key: &CellKey, record: &RunRecord) -> std::io::Result<()> {
        let line = render_line(key, record);
        // Spans are recorded before either error propagates (sigma-lint
        // D9): a failed write still lands its timing, so the Perfetto
        // timeline never loses the span that explains the failure.
        let t0 = self.recorder.now_us();
        let wrote = self.file.write_all(line.as_bytes());
        self.recorder.span_since(Stage::JournalAppend, &record.workload, t0);
        wrote?;
        let t1 = self.recorder.now_us();
        let synced = self.file.sync_data();
        self.recorder.span_since(Stage::JournalFsync, &record.workload, t1);
        synced?;
        self.appends += 1;
        Ok(())
    }

    /// Lines appended through this writer (not counting replayed ones).
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The journal path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically rewrites the journal to exactly `entries`, in order —
    /// the segment-rotation step: duplicates, skipped garbage, and torn
    /// tails are dropped, and the result lands via write-temp / fsync /
    /// rename so a crash leaves either the old or the new journal intact.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the temp write or rename fails.
    pub fn compact(&mut self, entries: &[(&CellKey, &RunRecord)]) -> std::io::Result<()> {
        let mut content = String::new();
        for (key, record) in entries {
            content.push_str(&render_line(key, record));
        }
        write_atomic(&self.path, content.as_bytes())?;
        // Re-open so later appends land after the rotated content.
        self.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        Ok(())
    }
}

/// What a journal replay recovered.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// `(key, record)` pairs in journal order, first occurrence of each
    /// key winning.
    pub entries: Vec<(CellKey, RunRecord)>,
    /// One human-readable warning per skipped line.
    pub warnings: Vec<String>,
}

impl JournalReplay {
    /// The replayed record for `key`, if the journal holds one. The
    /// match compares *canonical identity strings*, so a digest
    /// collision on disk can never alias a different cell.
    #[must_use]
    pub fn get(&self, key: &CellKey) -> Option<&RunRecord> {
        self.entries.iter().find(|(k, _)| k.canonical() == key.canonical()).map(|(_, r)| r)
    }
}

/// Replays the journal at `path`, tolerating the corruption classes in
/// the module docs. A missing file replays as empty (fresh sweep).
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing. Corrupt
/// *content* never errors — it is skipped with a warning.
pub fn replay(path: &Path) -> std::io::Result<JournalReplay> {
    let text = match File::open(path) {
        Ok(mut f) => {
            // Invalid UTF-8 (binary garbage) must degrade per-line, not
            // fail the whole replay: read raw and convert lossily.
            let mut raw = Vec::new();
            f.read_to_end(&mut raw)?;
            String::from_utf8_lossy(&raw).into_owned()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalReplay::default()),
        Err(e) => return Err(e),
    };
    let mut out = JournalReplay::default();
    let ends_with_newline = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        let torn = last && !ends_with_newline;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(Parsed::StaleSchema(schema)) => {
                out.warnings.push(format!(
                    "journal line {}: stale schema version {schema} (want {JOURNAL_SCHEMA}); skipped",
                    i + 1
                ));
            }
            Ok(Parsed::Entry(key, record)) => {
                if out.entries.iter().any(|(k, _)| k.canonical() == key.canonical()) {
                    out.warnings.push(format!(
                        "journal line {}: duplicate key {}; keeping the first occurrence",
                        i + 1,
                        key.hex()
                    ));
                    continue;
                }
                out.entries.push((key, *record));
            }
            Err(why) => {
                if torn {
                    out.warnings.push(format!(
                        "journal line {}: truncated final line (crash mid-append); skipped",
                        i + 1
                    ));
                } else {
                    out.warnings.push(format!("journal line {}: {why}; skipped", i + 1));
                }
            }
        }
    }
    Ok(out)
}

/// Outcome of parsing one syntactically valid journal line.
enum Parsed {
    /// A current-schema entry.
    Entry(CellKey, Box<RunRecord>),
    /// A line from a different schema version — its record layout may
    /// not match ours, so it is reported without attempting to parse it.
    StaleSchema(u32),
}

/// Parses one journal line. The key digest is recomputed from the
/// stored canonical identity and checked against the stored hex — a
/// mismatch (bit rot, a hand-edited line) is corruption, not an entry.
fn parse_line(line: &str) -> Result<Parsed, String> {
    let obj = json::parse(line)?;
    if obj.as_object().is_none() {
        return Err("top level is not an object".to_string());
    }
    let schema = field(&obj, "schema")?
        .as_raw()
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or("schema is not an integer")?;
    if schema != JOURNAL_SCHEMA {
        return Ok(Parsed::StaleSchema(schema));
    }
    let stored_hex = field(&obj, "key")?.as_str().ok_or("key is not a string")?;
    let canonical = field(&obj, "cell")?.as_str().ok_or("cell is not a string")?;
    let key = CellKey::from_canonical(canonical.to_string());
    if key.hex() != stored_hex {
        return Err(format!(
            "key {stored_hex} does not match the digest of the stored cell identity"
        ));
    }
    let record_obj = field(&obj, "record")?;
    if record_obj.as_object().is_none() {
        return Err("record is not an object".to_string());
    }
    let record = record_from_obj(record_obj)?;
    Ok(Parsed::Entry(key, Box::new(record)))
}

/// The member `name` of a parsed object, or a "missing field" error.
pub(crate) fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, String> {
    obj.get(name).ok_or_else(|| format!("missing field {name:?}"))
}

/// Rebuilds a [`RunRecord`] from its journal JSON object. All numeric
/// fields round-trip exactly (floats are emitted with `{:?}`, the
/// shortest representation that parses back to the same bits), with one
/// documented exception: a non-finite `max_abs_err` is emitted as JSON
/// `null` and replays as `+inf` — the sentinel every failure record uses.
fn record_from_obj(obj: &Json) -> Result<RunRecord, String> {
    fn str_field(obj: &Json, name: &str) -> Result<String, String> {
        field(obj, name)?.as_str().map(str::to_string).ok_or(format!("{name} is not a string"))
    }
    fn num<T: std::str::FromStr>(obj: &Json, name: &str) -> Result<T, String> {
        field(obj, name)?
            .as_raw()
            .and_then(|s| s.parse::<T>().ok())
            .ok_or(format!("{name} is not a number of the expected width"))
    }
    fn bool_field(obj: &Json, name: &str) -> Result<bool, String> {
        field(obj, name)?.as_bool().ok_or(format!("{name} is not a boolean"))
    }
    let status_name = str_field(obj, "status")?;
    let status = RunStatus::parse(&status_name).ok_or(format!("unknown status {status_name:?}"))?;
    let max_abs_err = match field(obj, "max_abs_err")? {
        Json::Null => f64::INFINITY,
        other => {
            other.as_raw().and_then(|s| s.parse().ok()).ok_or("max_abs_err is not a number")?
        }
    };
    let error = match field(obj, "error")? {
        Json::Null => None,
        other => Some(other.as_str().ok_or("error is not a string")?.to_string()),
    };
    Ok(RunRecord {
        engine_slug: str_field(obj, "engine_slug")?,
        engine: str_field(obj, "engine")?,
        workload: str_field(obj, "workload")?,
        m: num(obj, "m")?,
        n: num(obj, "n")?,
        k: num(obj, "k")?,
        density_a: num(obj, "density_a")?,
        density_b: num(obj, "density_b")?,
        seed: num(obj, "seed")?,
        pes: num(obj, "pes")?,
        loading_cycles: num(obj, "loading_cycles")?,
        streaming_cycles: num(obj, "streaming_cycles")?,
        add_cycles: num(obj, "add_cycles")?,
        total_cycles: num(obj, "total_cycles")?,
        folds: num(obj, "folds")?,
        useful_macs: num(obj, "useful_macs")?,
        issued_macs: num(obj, "issued_macs")?,
        stationary_utilization: num(obj, "stationary_utilization")?,
        compute_efficiency: num(obj, "compute_efficiency")?,
        overall_efficiency: num(obj, "overall_efficiency")?,
        max_abs_err,
        verified: bool_field(obj, "verified")?,
        status,
        faults_injected: num(obj, "faults_injected")?,
        faults_detected: num(obj, "faults_detected")?,
        faults_corrected: num(obj, "faults_corrected")?,
        faults_escaped: num(obj, "faults_escaped")?,
        route_cache_hits: num(obj, "route_cache_hits")?,
        route_cache_misses: num(obj, "route_cache_misses")?,
        idle_cycles_skipped: num(obj, "idle_cycles_skipped")?,
        wall_ms: num(obj, "wall_ms")?,
        attempts: num(obj, "attempts")?,
        mem_est_bytes: num(obj, "mem_est_bytes")?,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::record::CellProfile;
    use crate::harness::sweep::WorkloadSpec;
    use sigma_core::model::GemmProblem;
    use sigma_core::{CycleStats, EngineRun};
    use sigma_matrix::{GemmShape, Matrix};

    fn workload() -> WorkloadSpec {
        WorkloadSpec::new("wl", GemmProblem::sparse(GemmShape::new(4, 5, 6), 0.5, 0.25))
    }

    fn k(tag: &str) -> CellKey {
        CellKey::new(tag, "fp", &workload(), 7)
    }

    fn sample(slug: &str) -> RunRecord {
        let p = workload().problem;
        let run = EngineRun::new(
            Matrix::zeros(4, 5),
            CycleStats { streaming_cycles: 10, pes: 8, ..CycleStats::default() },
        );
        RunRecord::from_run(
            slug,
            "Engine",
            8,
            "wl",
            &p,
            7,
            &run,
            1e-6,
            true,
            CellProfile::default(),
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sigma_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.journal", std::process::id()))
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn append_then_replay_round_trips_records_exactly() {
        let path = tmp("round_trip");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path).unwrap();
        let mut degraded = sample("slow");
        degraded.status = RunStatus::Degraded;
        degraded.error = Some("budget exhausted twice; degraded".to_string());
        let records = [("a", sample("a")), ("b", sample("b")), ("slow", degraded)];
        for (tag, r) in &records {
            w.append(&k(tag), r).unwrap();
        }
        assert_eq!(w.appends(), 3);
        let replay = replay(&path).unwrap();
        assert!(replay.warnings.is_empty(), "{:?}", replay.warnings);
        assert_eq!(replay.entries.len(), 3);
        for (tag, r) in &records {
            assert_eq!(replay.get(&k(tag)).unwrap(), r);
            // Byte-identity is the real contract: re-rendered JSON and
            // CSV rows must match the original exactly.
            assert_eq!(replay.get(&k(tag)).unwrap().to_json(), r.to_json());
            assert_eq!(replay.get(&k(tag)).unwrap().row(), r.row());
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite 1 regression: a canonical identity whose stored digest
    /// no longer matches (the on-disk shape of a stale or tampered key)
    /// is corruption — it must warn and rerun, never replay as a hit.
    #[test]
    fn mismatched_key_digest_is_rejected_as_corruption() {
        let path = tmp("digest_mismatch");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&k("a"), &sample("a")).unwrap();
        // Flip one digest nibble on disk; the canonical stays intact.
        let text = std::fs::read_to_string(&path).unwrap();
        let good = k("a").hex();
        let flipped = if good.as_bytes()[0] == b'0' { '1' } else { '0' };
        let bad = format!("{flipped}{}", &good[1..]);
        std::fs::write(&path, text.replacen(&good, &bad, 1)).unwrap();
        let replay = replay(&path).unwrap();
        assert!(replay.entries.is_empty(), "tampered line must not replay");
        assert_eq!(replay.warnings.len(), 1);
        assert!(replay.warnings[0].contains("does not match"), "{}", replay.warnings[0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failure_records_round_trip_including_infinite_max_err() {
        let path = tmp("failure_round_trip");
        let _ = std::fs::remove_file(&path);
        let p = workload().problem;
        let rec = RunRecord::from_failure(
            "e",
            "E \"quoted\"\nname",
            1,
            "w",
            &p,
            0,
            RunStatus::Timeout,
            "engine exceeded the 10 ms watchdog budget".to_string(),
            CellProfile::default(),
        );
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&k("fail"), &rec).unwrap();
        let got = replay(&path).unwrap();
        assert_eq!(got.get(&k("fail")).unwrap(), &rec);
        assert_eq!(got.get(&k("fail")).unwrap().row(), rec.row());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_skipped_with_a_warning() {
        let path = tmp("torn_tail");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&k("a"), &sample("a")).unwrap();
        w.append(&k("b"), &sample("b")).unwrap();
        // Simulate a SIGKILL mid-append: chop the file mid-way through
        // the final line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let replay = replay(&path).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert!(replay.get(&k("a")).is_some());
        assert_eq!(replay.warnings.len(), 1);
        assert!(replay.warnings[0].contains("truncated final line"), "{}", replay.warnings[0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_duplicates_and_stale_schema_are_skipped_with_warnings() {
        let path = tmp("corruption");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&k("a"), &sample("a")).unwrap();
        // Garbage bytes (including invalid UTF-8) in the middle.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"\xff\xfenot json at all\n").unwrap();
            f.write_all(b"{\"schema\": 99, \"key\": \"00000000000000aa\", \"record\": {}}\n")
                .unwrap();
        }
        // Duplicate of the first key with different content, then a
        // fresh key.
        w.append(&k("a"), &sample("dup")).unwrap();
        w.append(&k("b"), &sample("b")).unwrap();
        let replay = replay(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.get(&k("a")).unwrap().engine_slug, "a", "first occurrence wins");
        assert!(replay.get(&k("b")).is_some());
        assert_eq!(replay.warnings.len(), 3, "{:?}", replay.warnings);
        assert!(replay.warnings.iter().any(|w| w.contains("stale schema")));
        assert!(replay.warnings.iter().any(|w| w.contains("duplicate key")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_replays_empty() {
        let path = tmp("never_written");
        let _ = std::fs::remove_file(&path);
        let replay = replay(&path).unwrap();
        assert!(replay.entries.is_empty());
        assert!(replay.warnings.is_empty());
    }

    #[test]
    fn write_atomic_replaces_content_and_cleans_temp() {
        let path = tmp("write_atomic");
        let _ = std::fs::remove_file(&path);
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        assert!(!PathBuf::from(tmp_name).exists(), "temp sibling cleaned up");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recorder_times_appends_and_fsyncs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let path = tmp("recorder");
        let _ = std::fs::remove_file(&path);
        let ticks = Arc::new(AtomicU64::new(0));
        let rec = FlightRecorder::with_clock(64, move || ticks.fetch_add(5, Ordering::Relaxed));
        let mut w = JournalWriter::open(&path).unwrap();
        w.set_recorder(rec.clone());
        w.append(&k("a"), &sample("a")).unwrap();
        w.append(&k("b"), &sample("b")).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.stage("journal_append").unwrap().count, 2);
        assert_eq!(snap.stage("journal_fsync").unwrap().count, 2);
        assert_eq!(snap.spans.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_rewrites_atomically_and_preserves_appendability() {
        let path = tmp("compaction");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(&k("a"), &sample("a")).unwrap();
        w.append(&k("a"), &sample("dup")).unwrap();
        w.append(&k("b"), &sample("b")).unwrap();
        let (ra, rb) = (sample("a"), sample("b"));
        let (ka, kb) = (k("a"), k("b"));
        w.compact(&[(&ka, &ra), (&kb, &rb)]).unwrap();
        let after = replay(&path).unwrap();
        assert_eq!(after.entries.len(), 2);
        assert!(after.warnings.is_empty());
        // The writer keeps working after rotation.
        w.append(&k("c"), &sample("c")).unwrap();
        let appended = replay(&path).unwrap();
        assert_eq!(appended.entries.len(), 3);
        assert!(!path.with_extension("journal.tmp").exists(), "temp file cleaned up");
        let _ = std::fs::remove_file(&path);
    }
}
