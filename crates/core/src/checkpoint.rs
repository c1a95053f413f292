//! Durable on-disk checkpointing — the piece that turns the in-memory
//! save/restore of `crate::serialize` into crash tolerance.
//!
//! Writes are atomic in the POSIX rename sense: the serialized state goes
//! to a temporary file in the checkpoint directory, is flushed with
//! `fsync`, then renamed over the final name (and the directory is synced
//! so the rename itself is durable). A crash at any point leaves either
//! the previous checkpoint or the new one — never a torn file — and the
//! v2 CRCs reject whatever a dying disk managed to corrupt anyway.
//!
//! Policy lives here too: a step-cadence (`every_steps`) and a retention
//! window (`keep_last`), so a long run keeps a bounded set of recent
//! checkpoints to roll back to. With telemetry enabled, writes feed
//! `samo.ckpt.writes` / `samo.ckpt.bytes_written` counters, the
//! `samo.ckpt.write_seconds` histogram, and a `samo.ckpt.last_bytes`
//! gauge.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Where and how often to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory the checkpoint files live in (created if missing).
    pub dir: PathBuf,
    /// Save every `every_steps` applied trainer steps (0 disables the
    /// cadence; explicit `save_now` still works).
    pub every_steps: u64,
    /// How many most-recent checkpoints to retain (older ones are
    /// pruned after a successful write). 0 means keep everything.
    pub keep_last: usize,
    /// File-name prefix, e.g. `"ckpt"` → `ckpt-000000000042.samo`.
    pub prefix: String,
}

impl CheckpointConfig {
    /// A sensible default rooted at `dir`: every 100 steps, keep 3.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            every_steps: 100,
            keep_last: 3,
            prefix: "ckpt".to_string(),
        }
    }
}

/// Durable checkpoint writer/loader with cadence and retention.
pub struct CheckpointManager {
    cfg: CheckpointConfig,
    /// Step count at the last successful save (cadence anchor).
    last_saved_step: Option<u64>,
}

impl CheckpointManager {
    /// Creates the manager, creating the directory if needed. Orphaned
    /// temp files from a previous crash are swept immediately — they
    /// are invisible to [`Self::list`]/retention and would otherwise
    /// leak forever.
    pub fn new(cfg: CheckpointConfig) -> Result<CheckpointManager, String> {
        fs::create_dir_all(&cfg.dir)
            .map_err(|e| format!("create checkpoint dir {:?}: {e}", cfg.dir))?;
        let mgr = CheckpointManager {
            cfg,
            last_saved_step: None,
        };
        mgr.sweep_stale_tmps()?;
        Ok(mgr)
    }

    /// The active configuration.
    pub fn config(&self) -> &CheckpointConfig {
        &self.cfg
    }

    fn file_name(&self, step: u64) -> PathBuf {
        // 12-digit zero-padding keeps lexicographic directory listings
        // readable; ordering correctness never depends on it because
        // `parse_step` compares the step numbers numerically.
        self.cfg.dir.join(format!("{}-{:012}.samo", self.cfg.prefix, step))
    }

    /// The step number encoded in a checkpoint file name this manager
    /// (or an older, narrower-padded version of it) wrote; `None` for
    /// foreign files.
    fn parse_step(&self, path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let digits = name
            .strip_prefix(&format!("{}-", self.cfg.prefix))?
            .strip_suffix(".samo")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// Removes orphaned `{prefix}-*.samo.tmp` files — the leftovers of
    /// a crash that landed between the temp write and the rename.
    /// Returns how many were removed and bumps `samo.ckpt.tmp_swept`.
    pub fn sweep_stale_tmps(&self) -> Result<usize, String> {
        let mut swept = 0usize;
        let entries = fs::read_dir(&self.cfg.dir)
            .map_err(|e| format!("read checkpoint dir {:?}: {e}", self.cfg.dir))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("read dir entry: {e}"))?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with(&format!("{}-", self.cfg.prefix)) && name.ends_with(".samo.tmp") {
                fs::remove_file(&path).map_err(|e| format!("sweep stale tmp {path:?}: {e}"))?;
                telemetry::log_debug!("checkpoint: swept stale temp file {path:?}");
                swept += 1;
            }
        }
        if swept > 0 && telemetry::enabled() {
            telemetry::global().counter("samo.ckpt.tmp_swept").add(swept as u64);
        }
        Ok(swept)
    }

    /// Whether the cadence policy calls for a save at `steps_taken`.
    pub fn due(&self, steps_taken: u64) -> bool {
        if self.cfg.every_steps == 0 {
            return false;
        }
        match self.last_saved_step {
            None => steps_taken >= self.cfg.every_steps,
            Some(last) => steps_taken >= last + self.cfg.every_steps,
        }
    }

    /// Saves if the cadence policy says so; returns the path written, if
    /// any. `bytes` is only serialized by the caller when due — pass a
    /// closure-produced buffer via [`Self::maybe_save_with`] to avoid
    /// serializing on off-cadence steps.
    pub fn maybe_save_with(
        &mut self,
        steps_taken: u64,
        serialize: impl FnOnce() -> bytes::Bytes,
    ) -> Result<Option<PathBuf>, String> {
        if !self.due(steps_taken) {
            return Ok(None);
        }
        let path = self.save_now(steps_taken, &serialize())?;
        Ok(Some(path))
    }

    /// Unconditionally writes `bytes` as the checkpoint for
    /// `steps_taken`, atomically (temp file + fsync + rename + dir
    /// sync), then prunes beyond the retention window.
    pub fn save_now(&mut self, steps_taken: u64, bytes: &[u8]) -> Result<PathBuf, String> {
        let tel = telemetry::enabled();
        let started = std::time::Instant::now();
        let final_path = self.file_name(steps_taken);
        let tmp_path = final_path.with_extension("samo.tmp");
        {
            let mut f = fs::File::create(&tmp_path)
                .map_err(|e| format!("create {tmp_path:?}: {e}"))?;
            f.write_all(bytes)
                .map_err(|e| format!("write {tmp_path:?}: {e}"))?;
            f.sync_all().map_err(|e| format!("fsync {tmp_path:?}: {e}"))?;
        }
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| format!("rename {tmp_path:?} -> {final_path:?}: {e}"))?;
        // Sync the directory so the rename is durable, not just the data.
        if let Ok(dir) = fs::File::open(&self.cfg.dir) {
            let _ = dir.sync_all();
        }
        self.last_saved_step = Some(steps_taken);
        let elapsed = started.elapsed().as_secs_f64();
        telemetry::log_info!(
            "checkpoint: wrote {final_path:?} ({} bytes) in {elapsed:.3}s",
            bytes.len()
        );
        if tel {
            let reg = telemetry::global();
            reg.counter("samo.ckpt.writes").inc();
            reg.counter("samo.ckpt.bytes_written").add(bytes.len() as u64);
            reg.gauge("samo.ckpt.last_bytes").set(bytes.len() as f64);
            reg.histogram("samo.ckpt.write_seconds").record(elapsed);
        }
        self.sweep_stale_tmps()?;
        self.prune_old()?;
        Ok(final_path)
    }

    /// All retained checkpoints, oldest first **by step number** — a
    /// numeric sort on the parsed step, not a lexicographic one on the
    /// file name, so checkpoints written with narrower zero-padding
    /// (older builds, or runs past the padding width) still order by
    /// step. Files whose name doesn't parse as `{prefix}-<digits>.samo`
    /// are not ours and are ignored.
    pub fn list(&self) -> Result<Vec<PathBuf>, String> {
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&self.cfg.dir)
            .map_err(|e| format!("read checkpoint dir {:?}: {e}", self.cfg.dir))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("read dir entry: {e}"))?.path();
            if let Some(step) = self.parse_step(&path) {
                found.push((step, path));
            }
        }
        found.sort();
        Ok(found.into_iter().map(|(_, p)| p).collect())
    }

    /// The newest retained checkpoint, if any — the resume point after a
    /// crash.
    pub fn latest(&self) -> Result<Option<PathBuf>, String> {
        Ok(self.list()?.pop())
    }

    fn prune_old(&self) -> Result<(), String> {
        if self.cfg.keep_last == 0 {
            return Ok(());
        }
        // The currently-published checkpoint is pinned: a serve-side
        // watcher may be about to load it, and pruning it would turn an
        // atomic publish into a dangling marker.
        let published = self.published().map(|(_, p)| p);
        let found = self.list()?;
        if found.len() > self.cfg.keep_last {
            for old in &found[..found.len() - self.cfg.keep_last] {
                if published.as_deref() == Some(old.as_path()) {
                    telemetry::log_debug!("checkpoint: retention skipping published {old:?}");
                    continue;
                }
                fs::remove_file(old).map_err(|e| format!("prune {old:?}: {e}"))?;
                telemetry::log_debug!("checkpoint: pruned {old:?}");
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- publish

impl CheckpointManager {
    /// The publish-marker path for this manager's prefix:
    /// `{dir}/{prefix}.published`.
    pub fn publish_marker(&self) -> PathBuf {
        publish_marker_path(&self.cfg.dir, &self.cfg.prefix)
    }

    /// Atomically publishes `path` (a checkpoint this manager wrote) for
    /// serve-side subscribers: writes the `{prefix}.published` marker
    /// with the same tmp + fsync + rename + dir-sync discipline as the
    /// saves themselves, so a watcher polling the marker can never
    /// observe a half-written one. The marker line carries its own
    /// CRC-32, so even a torn write planted by a crashed foreign writer
    /// is detected and ignored by [`CheckpointSubscriber::poll`].
    ///
    /// Publishing is the serve handoff: training saves on its cadence,
    /// then publishes the checkpoints it wants served; the retention
    /// sweep never prunes the currently-published file.
    pub fn publish(&self, path: &Path) -> Result<u64, String> {
        let step = self
            .parse_step(path)
            .ok_or_else(|| format!("publish: {path:?} is not a checkpoint of prefix {:?}", self.cfg.prefix))?;
        if !path.exists() {
            return Err(format!("publish: checkpoint {path:?} does not exist"));
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("publish: unutterable file name {path:?}"))?;
        let line = format!("{name} {:08x}\n", crate::serialize::crc32(name.as_bytes()));
        let marker = self.publish_marker();
        let tmp = marker.with_extension("published.tmp");
        {
            let mut f = fs::File::create(&tmp).map_err(|e| format!("create {tmp:?}: {e}"))?;
            f.write_all(line.as_bytes())
                .map_err(|e| format!("write {tmp:?}: {e}"))?;
            f.sync_all().map_err(|e| format!("fsync {tmp:?}: {e}"))?;
        }
        fs::rename(&tmp, &marker)
            .map_err(|e| format!("rename {tmp:?} -> {marker:?}: {e}"))?;
        if let Ok(dir) = fs::File::open(&self.cfg.dir) {
            let _ = dir.sync_all();
        }
        telemetry::log_info!("checkpoint: published step {step} ({name})");
        if telemetry::enabled() {
            telemetry::global().counter("samo.ckpt.publishes").inc();
        }
        Ok(step)
    }

    /// Saves `bytes` for `steps_taken` and publishes the result in one
    /// call — the train → publish → serve handoff as a single step.
    pub fn save_and_publish(&mut self, steps_taken: u64, bytes: &[u8]) -> Result<PathBuf, String> {
        let path = self.save_now(steps_taken, bytes)?;
        self.publish(&path)?;
        Ok(path)
    }

    /// The currently published checkpoint, if a valid marker exists.
    pub fn published(&self) -> Option<(u64, PathBuf)> {
        read_publish_marker(&self.cfg.dir, &self.cfg.prefix)
    }
}

/// The publish-marker path for `prefix` under `dir`.
pub fn publish_marker_path(dir: &Path, prefix: &str) -> PathBuf {
    dir.join(format!("{prefix}.published"))
}

/// Parses and validates the publish marker: one `"{name} {crc:08x}\n"`
/// line whose CRC matches, naming an existing `{prefix}-<step>.samo`
/// file. Anything else — missing marker, torn/partial line, CRC
/// mismatch, foreign name, missing checkpoint — yields `None`: a
/// subscriber never acts on a publish it cannot fully validate.
fn read_publish_marker(dir: &Path, prefix: &str) -> Option<(u64, PathBuf)> {
    let raw = fs::read_to_string(publish_marker_path(dir, prefix)).ok()?;
    let line = raw.strip_suffix('\n')?;
    let (name, crc_hex) = line.rsplit_once(' ')?;
    let crc: u32 = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc != crate::serialize::crc32(name.as_bytes()) || crc_hex.len() != 8 {
        return None;
    }
    let digits = name.strip_prefix(&format!("{prefix}-"))?.strip_suffix(".samo")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let step: u64 = digits.parse().ok()?;
    let path = dir.join(name);
    path.exists().then_some((step, path))
}

/// Serve-side watcher handle: polls the publish marker and reports each
/// *newly* published step exactly once. Validation is structural (see
/// [`CheckpointManager::publish`]); content validation — the v2 CRCs —
/// happens when the caller loads the returned path, which it must do
/// before serving from it.
pub struct CheckpointSubscriber {
    dir: PathBuf,
    prefix: String,
    last_step: Option<u64>,
}

impl CheckpointSubscriber {
    /// A subscriber that has seen nothing yet: the first `poll` reports
    /// the current publish, if any.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> CheckpointSubscriber {
        CheckpointSubscriber {
            dir: dir.into(),
            prefix: prefix.into(),
            last_step: None,
        }
    }

    /// Returns the published `(step, path)` if it differs from the last
    /// one this subscriber reported. Republishing an older step (a
    /// rollback) is reported too — the marker is the truth, not the
    /// step ordering.
    pub fn poll(&mut self) -> Option<(u64, PathBuf)> {
        let (step, path) = read_publish_marker(&self.dir, &self.prefix)?;
        if self.last_step == Some(step) {
            return None;
        }
        self.last_step = Some(step);
        Some((step, path))
    }
}

/// Reads a checkpoint file written by [`CheckpointManager`]. Pure I/O —
/// pass the bytes to `crate::serialize::load_checkpoint` (or a trainer's
/// `restore`) for validation; any corruption surfaces there as `Err`.
pub fn read_checkpoint_file(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("read checkpoint {path:?}: {e}"))
}

/// Convenience: read + deserialize + structural/CRC validation in one
/// call. Never panics on corrupt input.
pub fn load_checkpoint_file(
    path: &Path,
    opt: &nn::mixed::Optimizer,
) -> Result<(Vec<crate::state::SamoLayerState>, crate::serialize::TrainerMeta), String> {
    let bytes = read_checkpoint_file(path)?;
    crate::serialize::load_checkpoint(&bytes, opt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SamoLayerState;
    use nn::mixed::Optimizer;
    use nn::optim::AdamConfig;

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig::default())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("samo-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_bytes(seed: u64) -> bytes::Bytes {
        let mask = prune::random_prune(&[64], 0.5, seed);
        let st = SamoLayerState::from_params(&vec![0.25; 64], mask, &adam());
        crate::serialize::save_checkpoint(
            std::slice::from_ref(&st),
            &crate::serialize::TrainerMeta {
                loss_scale: 2.0,
                good_steps: 1,
                steps_taken: seed,
                steps_skipped: 0,
            },
        )
    }

    #[test]
    fn save_load_roundtrip_via_disk() {
        let dir = tmpdir("roundtrip");
        let mut mgr = CheckpointManager::new(CheckpointConfig::new(&dir)).unwrap();
        let bytes = sample_bytes(3);
        let path = mgr.save_now(3, &bytes).unwrap();
        assert!(path.exists());
        let (layers, meta) = load_checkpoint_file(&path, &adam()).unwrap();
        assert_eq!(layers.len(), 1);
        assert_eq!(meta.steps_taken, 3);
        assert_eq!(mgr.latest().unwrap().unwrap(), path);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let dir = tmpdir("tmpfiles");
        let mut mgr = CheckpointManager::new(CheckpointConfig::new(&dir)).unwrap();
        mgr.save_now(1, &sample_bytes(1)).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().map(|e| e == "tmp").unwrap_or(false))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cadence_and_retention() {
        let dir = tmpdir("cadence");
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.every_steps = 10;
        cfg.keep_last = 2;
        let mut mgr = CheckpointManager::new(cfg).unwrap();
        assert!(!mgr.due(5));
        assert!(mgr.due(10));
        let mut written = 0;
        for step in 1..=45u64 {
            if mgr
                .maybe_save_with(step, || sample_bytes(step))
                .unwrap()
                .is_some()
            {
                written += 1;
            }
        }
        assert_eq!(written, 4, "steps 10, 20, 30, 40");
        let kept = mgr.list().unwrap();
        assert_eq!(kept.len(), 2, "retention prunes to keep_last");
        assert!(kept[1].to_str().unwrap().contains("000000040"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_last_zero_retains_every_checkpoint() {
        let dir = tmpdir("keepall");
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.keep_last = 0;
        let mut mgr = CheckpointManager::new(cfg).unwrap();
        for step in 1..=7u64 {
            mgr.save_now(step, &sample_bytes(step)).unwrap();
        }
        assert_eq!(mgr.list().unwrap().len(), 7, "keep_last == 0 means keep everything");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_construction_and_after_saves() {
        let dir = tmpdir("tmpsweep");
        fs::create_dir_all(&dir).unwrap();
        // A crash between temp write and rename leaves exactly this.
        let orphan = dir.join("ckpt-000000000003.samo.tmp");
        fs::write(&orphan, b"torn write").unwrap();
        // Foreign files must survive the sweep untouched.
        let foreign_tmp = dir.join("other-000000000003.samo.tmp");
        let foreign = dir.join("notes.txt");
        fs::write(&foreign_tmp, b"not ours").unwrap();
        fs::write(&foreign, b"keep me").unwrap();

        let mut mgr = CheckpointManager::new(CheckpointConfig::new(&dir)).unwrap();
        assert!(!orphan.exists(), "construction must sweep orphaned tmp files");
        assert!(foreign_tmp.exists() && foreign.exists(), "sweep only matches our prefix");
        // The orphan is invisible to list() either way — that's the leak.
        assert!(mgr.list().unwrap().is_empty());

        // And after a successful save: plant another orphan, then save.
        let orphan2 = dir.join("ckpt-000000000004.samo.tmp");
        fs::write(&orphan2, b"torn again").unwrap();
        mgr.save_now(5, &sample_bytes(5)).unwrap();
        assert!(!orphan2.exists(), "save_now must sweep stale tmp files");
        assert_eq!(mgr.list().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ordering_is_numeric_not_lexicographic_across_padding_rollover() {
        let dir = tmpdir("rollover");
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.keep_last = 2;
        let mut mgr = CheckpointManager::new(cfg).unwrap();
        // A checkpoint from an older build with 9-digit padding: step
        // 999,999,999. Lexicographically "ckpt-999999999.samo" sorts
        // *after* the 12-padded "ckpt-001000000000.samo" even though
        // its step is smaller — the bug this fix pins down.
        let legacy = dir.join("ckpt-999999999.samo");
        fs::write(&legacy, sample_bytes(999_999_999)).unwrap();
        // Junk that matches prefix+suffix but isn't a step-numbered
        // checkpoint must be ignored, not pruned or returned.
        let junk = dir.join("ckpt-abc.samo");
        fs::write(&junk, b"junk").unwrap();

        let newer = mgr.save_now(1_000_000_000, &sample_bytes(0)).unwrap();
        assert_eq!(
            mgr.latest().unwrap().unwrap(),
            newer,
            "latest() must pick the numerically largest step, not the lexicographic max"
        );
        assert_eq!(mgr.list().unwrap(), vec![legacy.clone(), newer.clone()]);

        // Retention prunes the numerically oldest (the legacy file).
        let newest = mgr.save_now(1_000_000_001, &sample_bytes(1)).unwrap();
        assert!(!legacy.exists(), "prune_old must drop the numerically oldest step");
        assert_eq!(mgr.list().unwrap(), vec![newer, newest]);
        assert!(junk.exists(), "foreign files are not the manager's to prune");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_file_is_rejected_not_panicking() {
        let dir = tmpdir("corrupt");
        let mut mgr = CheckpointManager::new(CheckpointConfig::new(&dir)).unwrap();
        let path = mgr.save_now(7, &sample_bytes(7)).unwrap();
        let mut raw = fs::read(&path).unwrap();
        let n = raw.len();
        raw[n / 2] ^= 0x40;
        fs::write(&path, &raw).unwrap();
        assert!(load_checkpoint_file(&path, &adam()).is_err());
        // Truncation too.
        fs::write(&path, &raw[..n / 3]).unwrap();
        assert!(load_checkpoint_file(&path, &adam()).is_err());
        // Missing file is an I/O error, not a panic.
        assert!(load_checkpoint_file(&dir.join("nope.samo"), &adam()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
