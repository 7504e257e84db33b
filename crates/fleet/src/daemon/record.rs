//! Wire-traffic recording and replay: [`FleetDaemon::record_to`],
//! [`FleetDaemon::stop_recording`] and [`FleetDaemon::replay_traffic`].

use super::{FleetDaemon, FleetError};
use capes_persist::{PersistError, RecordLogWriter};
use std::path::Path;

impl FleetDaemon {
    /// Starts recording the fleet's inbound wire traffic to an append-only
    /// log at `path`: every monitoring frame the socket front end delivers
    /// is captured as a `(tick, cluster, frame)` record before it is
    /// ingested. [`FleetDaemon::replay_traffic`] (or
    /// [`crate::Replayer`]) feeds the log back through the same ingest path
    /// deterministically. A log that is already open is finished first
    /// (as by [`FleetDaemon::stop_recording`]).
    ///
    /// # Errors
    /// [`FleetError::RecordUnsupported`] unless the fleet runs on
    /// [`Transport::Socket`](capes::Transport::Socket) — the wire transport never crosses the socket
    /// ingest path; [`FleetError::Persist`] if the open log cannot be
    /// finished (the new one is then not started) or the new one cannot be
    /// created.
    pub fn record_to(&mut self, path: &Path) -> Result<(), FleetError> {
        if self.socket.is_none() {
            return Err(FleetError::RecordUnsupported);
        }
        self.stop_recording()?;
        self.recorder = Some(RecordLogWriter::create(path)?);
        Ok(())
    }

    /// Stops recording, flushes and fsyncs the log, and returns the number
    /// of records captured. Returns `Ok(0)` when no recording was active.
    pub fn stop_recording(&mut self) -> Result<u64, FleetError> {
        match self.recorder.take() {
            Some(recorder) => Ok(recorder.finish()?),
            None => Ok(0),
        }
    }

    /// Feeds a recorded wire-traffic log back through the member systems'
    /// ingest path ([`CapesSystem::ingest_message`](capes::CapesSystem::ingest_message)), in the captured
    /// arrival order, and returns how many messages were delivered. Replay
    /// reproduces the monitoring state a live socket fleet built from the
    /// same traffic: the stored observations and objectives, the daemon
    /// ingest statistics — without any socket in the loop.
    pub fn replay_traffic(&mut self, path: &Path) -> Result<u64, FleetError> {
        let mut replayer = crate::traffic::Replayer::open(path)?;
        let mut delivered = 0u64;
        while let Some((_tick, cluster, message)) = replayer.next_message()? {
            let cluster = cluster as usize;
            if cluster >= self.sessions.len() {
                return Err(PersistError::mismatch(format!(
                    "recorded frame addresses cluster {cluster}, this fleet has {}",
                    self.sessions.len()
                ))
                .into());
            }
            // In bounds: the range check above rejects out-of-range clusters.
            self.sessions[cluster].system.ingest_message(&message);
            delivered += 1;
        }
        Ok(delivered)
    }
}
