//! Durability: [`FleetDaemon::checkpoint`], [`FleetDaemon::restore`] and
//! automatic checkpointing.

use super::{FleetDaemon, FleetError};
use crate::report::ExperienceSharing;
use capes::CapesError;
use capes_persist::{Pass, Persist, PersistError, Reader, SnapshotSlot};
use capes_replay::ReplayDb;
use capes_telemetry::names;
use std::path::{Path, PathBuf};

fn checkpoint_mismatch(reason: impl Into<String>) -> FleetError {
    FleetError::Capes(CapesError::CheckpointMismatch {
        reason: reason.into(),
    })
}

fn replay_mismatch(reason: String) -> FleetError {
    FleetError::Capes(CapesError::ReplayConfigMismatch { reason })
}

/// A section walk's error: a [`PersistError::Mismatch`] — the stored
/// section's shapes disagree with the live one's — as `mismatch` makes it,
/// anything else as the codec error it is.
fn section_error(e: PersistError, mismatch: impl FnOnce(String) -> FleetError) -> FleetError {
    match e {
        PersistError::Mismatch { reason } => mismatch(reason),
        e => e.into(),
    }
}

impl FleetDaemon {
    /// Serializes the complete mid-experiment state of the fleet into a
    /// crash-safe snapshot file: transport, tick counters, per-profile
    /// experience sharing and DQN agents (weights, Adam state, ε-schedule
    /// RNG), the whole replay arena, and every member system's state
    /// (simulated cluster RNGs, monitors, interface daemon, control-agent
    /// caches, tick bookkeeping). [`FleetDaemon::restore`] of the file into an
    /// identically-built fleet resumes bit-identically: the same future
    /// reports and the same final weights as the uninterrupted run.
    ///
    /// The write is atomic (temp file + fsync + rename), so a crash leaves
    /// the previous snapshot intact, and `Ok` means the new one is durable
    /// under `path`. The daemon keeps a [`SnapshotSlot`] for the path it
    /// last checkpointed to: from the second checkpoint to the same path
    /// on, the previous generation's file stays beside it as `<path>.tmp`
    /// and the next checkpoint overwrites it in place, which spares the
    /// filesystem a fresh file and the rename the eviction of a whole
    /// snapshot. Checkpointing to another path, or dropping the daemon,
    /// removes that spare. Durability counters themselves are not in the
    /// payload — a restored fleet's future snapshots stay byte-identical
    /// to the original's.
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), FleetError> {
        // Five disjoint pieces of `persist.checkpoint.total`: `.encode`,
        // `.crc`, `.write`, `.fsync` and `.dirsync`. Encoding, checksumming
        // and writing interleave chunk by chunk as the snapshot streams into
        // its temporary file, so the writer accumulates them and reports
        // the sums (`capes-persist` is dependency-free and cannot record
        // them itself).
        // A slot for another path is dropped first, outside the span: that
        // removes its spare, and the kernel evicts and frees a whole
        // snapshot, which none of the five pieces would account for.
        if self
            .snapshot_slot
            .as_ref()
            .is_some_and(|slot| slot.path() != path)
        {
            self.snapshot_slot = None;
        }
        let _total = capes_telemetry::span!(names::SPAN_PERSIST_CHECKPOINT_TOTAL);
        let transport = self.transport();
        let slot = self
            .snapshot_slot
            .get_or_insert_with(|| SnapshotSlot::new(path));
        let mut w = slot.writer()?;
        w.put_u8(transport.tag());
        w.put_u64(self.tick);
        w.put_usize(self.train_cursor);
        w.put_u64(self.cluster_ticks);
        self.profile_sharing.encode(&mut w);
        w.put_usize(self.profiles.len());
        for profile in &self.profiles {
            w.put_usize(profile.observation_size);
            w.put_usize(profile.num_params);
            profile.stripe_members.encode(&mut w);
            profile.agent.encode(&mut w);
        }
        // The arena: a stripe count, then each stripe under its own read
        // lock, one at a time like the samplers, so an encode racing live
        // writers snapshots each stripe at some consistent point.
        w.put_usize(self.arena.num_stripes());
        for i in 0..self.arena.num_stripes() {
            self.arena.with_read(i, |db| db.encode(&mut w));
        }
        w.put_usize(self.sessions.len());
        for session in &self.sessions {
            w.put_str(&session.name);
            // Two v1 slots the member blob now covers: the phase's
            // throughput (a copy of the blob's phase record) and a
            // prediction-error mark that is always 0.
            f64::encode_slice(session.system.phase_throughput(), &mut w);
            w.put_usize(0);
            // Each member system's state rides as one length-prefixed blob,
            // which restore detaches and walks on both passes. An open blob
            // is held whole in the writer's buffer (and in restore's detached
            // copy); members run a `NullEngine` (their agents are the
            // profiles' above), so theirs stay far below the window.
            w.put_blob(|w| session.system.encode_state(w));
        }
        let stats = w.finish()?;
        self.telemetry.record_checkpoint(&stats);
        self.persist.checkpoints_written.inc();
        Ok(())
    }

    /// Restores a [`FleetDaemon::checkpoint`] snapshot into this fleet.
    ///
    /// The fleet must have been built with the same configuration the
    /// snapshot was taken under: same transport, same scenarios (names and
    /// geometry in order), same replay configuration. Configuration skew —
    /// wrong cluster count, wrong observation width, mismatched replay
    /// capacity — is a typed error that leaves the fleet untouched:
    /// [`CapesError::CheckpointMismatch`] for geometry disagreements,
    /// [`CapesError::ReplayConfigMismatch`] for arena-stripe disagreements,
    /// [`FleetError::Persist`] for corrupt or truncated files.
    ///
    /// The file is read three times under one shared lock. The first pass
    /// verifies the container and its CRC. The second, the check pass,
    /// walks the payload against the live fleet one section at a time — one
    /// profile's agent, one arena stripe, one member's name and state blob —
    /// and runs every check, each member's `CapesSystem::decode_state`
    /// included, without building an agent or a replay stripe: their stored
    /// shapes are compared with the live ones, and their bulk `f64` runs are
    /// stepped over once the counts are checked. Nothing is overwritten
    /// before the whole snapshot has been checked. The third, the apply
    /// pass, walks the payload again with the same checks and writes each
    /// value straight into the live agents' matrices and the arena stripes'
    /// own slot buffers. No pass holds a second copy of any section, so the
    /// restore's heap peak is the live fleet plus a window and one member's
    /// state blob.
    ///
    /// Once the check pass has returned `Ok`, only a read error during the
    /// apply pass can stop it; the daemon is then part-restored and must be
    /// discarded, not run.
    pub fn restore(&mut self, path: &Path) -> Result<(), FleetError> {
        let _span = capes_telemetry::span!(names::SPAN_PERSIST_RESTORE);
        // The verifying pass reads magic, version, length against the file
        // size and CRC before any payload byte is interpreted; the other
        // two stream the payload through the codec's window, so the file
        // image is never resident.
        let mut snapshot = {
            let _verify = capes_telemetry::span!(names::SPAN_PERSIST_RESTORE_VERIFY);
            capes_persist::SnapshotFile::open(path)?
        };
        {
            let _check = capes_telemetry::span!(names::SPAN_PERSIST_RESTORE_CHECK);
            self.restore_pass(&mut snapshot.reader()?, Pass::Check)?;
        }
        self.restore_pass(&mut snapshot.reader()?, Pass::Apply)?;
        self.persist.restores.inc();
        Ok(())
    }

    /// One walk over a verified snapshot payload, section by section against
    /// this fleet: [`Pass::Check`] checks each and leaves `self` untouched,
    /// [`Pass::Apply`] writes each into place before the next is read.
    fn restore_pass(&mut self, r: &mut Reader<'_>, pass: Pass) -> Result<(), FleetError> {
        let apply = pass == Pass::Apply;
        let tag = r.get_u8()?;
        if tag != self.transport().tag() {
            return Err(checkpoint_mismatch(format!(
                "snapshot transport tag {tag} disagrees with the fleet's {:?} transport",
                self.transport()
            )));
        }
        let tick = r.get_u64()?;
        let train_cursor = r.get_usize()?;
        let cluster_ticks = r.get_u64()?;
        let sharing = Vec::<ExperienceSharing>::decode(r)?;
        if sharing.len() != self.profiles.len() {
            return Err(checkpoint_mismatch(format!(
                "snapshot holds sharing modes for {} profiles, this fleet has {}",
                sharing.len(),
                self.profiles.len()
            )));
        }
        for (mode, profile) in sharing.iter().zip(&self.profiles) {
            mode.validate(profile.stripe_members.len())
                .map_err(|what| PersistError::BadValue { what })?;
        }
        if apply {
            self.profile_sharing = sharing;
        }
        let num_profiles = r.get_count(1)?;
        if num_profiles != self.profiles.len() {
            return Err(checkpoint_mismatch(format!(
                "snapshot holds {num_profiles} profiles, this fleet has {}",
                self.profiles.len()
            )));
        }
        for (i, profile) in self.profiles.iter_mut().enumerate() {
            let observation_size = r.get_usize()?;
            let num_params = r.get_usize()?;
            let stripe_members = Vec::<usize>::decode(r)?;
            if observation_size != profile.observation_size
                || num_params != profile.num_params
                || stripe_members != profile.stripe_members
            {
                return Err(checkpoint_mismatch(format!(
                    "profile {i} geometry disagrees with the snapshot \
                     (snapshot: {observation_size}-wide × {num_params} params over \
                     {stripe_members:?}; fleet: {}-wide × {} params over {:?})",
                    profile.observation_size, profile.num_params, profile.stripe_members
                )));
            }
            profile.agent.decode_in_place(r, pass).map_err(|e| {
                section_error(e, |reason| {
                    checkpoint_mismatch(format!(
                        "profile {i}'s snapshot agent was trained for a different geometry \
                         ({reason})"
                    ))
                })
            })?;
        }
        // The arena as `checkpoint` wrote it: a stripe count, then each
        // stripe, walked against the live one.
        let num_stripes = r.get_count(<ReplayDb as Persist>::MIN_SIZE)?;
        if num_stripes != self.arena.num_stripes() {
            return Err(replay_mismatch(format!(
                "snapshot holds {num_stripes} arena stripes, this fleet has {}",
                self.arena.num_stripes()
            )));
        }
        for i in 0..num_stripes {
            self.arena
                .decode_stripe(i, r, pass)
                .map_err(|e| section_error(e, replay_mismatch))?;
        }
        let num_sessions = r.get_count(1)?;
        if num_sessions != self.sessions.len() {
            return Err(checkpoint_mismatch(format!(
                "snapshot holds {num_sessions} clusters, this fleet has {}",
                self.sessions.len()
            )));
        }
        for session in &mut self.sessions {
            let name = r.get_str()?;
            if name != session.name {
                return Err(checkpoint_mismatch(format!(
                    "snapshot cluster '{name}' does not match fleet cluster '{}'",
                    session.name
                )));
            }
            // The two v1 slots `checkpoint` fills from the member blob's
            // phase record, which the blob restores: stepped over.
            let throughput = r.get_count(8)?;
            r.get_f64_run(throughput, None)?;
            r.get_usize()?;
            // The reader's window moves on; the member blob is detached.
            let blob = r.get_byte_vec()?;
            let mut sub = Reader::new(&blob);
            session.system.decode_state(&mut sub, pass)?;
            sub.finish()?;
        }
        r.finish()?;
        if apply {
            self.tick = tick;
            self.train_cursor = train_cursor;
            self.cluster_ticks = cluster_ticks;
        }
        Ok(())
    }

    /// Enables automatic checkpointing: after every `every`-th fleet tick
    /// the daemon snapshots itself to `path` with [`FleetDaemon::checkpoint`]
    /// (atomically replacing the previous snapshot, and from the second
    /// snapshot on overwriting the generation before it in place, so the
    /// directory holds `path` and `<path>.tmp` until the daemon checkpoints
    /// elsewhere or is dropped; [`FleetDaemon::disable_auto_checkpoint`]
    /// keeps the spare for the next enable). A failed automatic checkpoint
    /// is counted in the [`PersistReport`](crate::PersistReport) and the run continues —
    /// durability must not take the experiment down.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn auto_checkpoint_every(&mut self, every: u64, path: impl Into<PathBuf>) {
        assert!(every > 0, "auto-checkpoint interval must be positive");
        self.auto_checkpoint = Some((every, path.into()));
    }

    /// Disables automatic checkpointing.
    pub fn disable_auto_checkpoint(&mut self) {
        self.auto_checkpoint = None;
    }

    /// Takes the automatic checkpoint when this tick is due one. The setting
    /// is only moved out on a due tick, and put back after.
    pub(super) fn auto_checkpoint_if_due(&mut self) {
        let tick = self.tick;
        let due = self
            .auto_checkpoint
            .take_if(|(every, _)| tick.is_multiple_of(*every));
        if let Some((every, path)) = due {
            match self.checkpoint(&path) {
                Ok(()) => self.persist.auto_checkpoints.inc(),
                Err(_) => self.persist.auto_checkpoint_failures.inc(),
            }
            self.auto_checkpoint = Some((every, path));
        }
    }
}
