//! Error type for the serving layer.

use std::fmt;

/// Anything that can go wrong while serving: transport failures, malformed
/// wire messages, unknown sites, or errors bubbling up from the core library.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem trouble.
    Io(std::io::Error),
    /// A malformed, corrupt, or mis-framed wire message (either protocol
    /// version). [`taf_wire::WireError::is_recoverable`] tells the server
    /// whether the connection can survive it.
    Wire(taf_wire::WireError),
    /// An error from the localization core (bad shapes, solver failure, ...).
    Core(tafloc_core::TaflocError),
    /// A numerical-substrate error.
    Linalg(taf_linalg::LinalgError),
    /// An error from the streaming ingestion pipeline.
    Ingest(tafloc_ingest::IngestError),
    /// Request named a site the registry does not hold.
    UnknownSite(String),
    /// `add-site` for a name that is already registered.
    SiteExists(String),
    /// Wire-protocol violation (unexpected EOF, invalid UTF-8, ...).
    Protocol(String),
    /// A request line exceeded the per-line byte cap. Recoverable: the
    /// reader drained through the terminating newline, so the connection
    /// stays framed and the server answers with an error frame.
    OversizedLine {
        /// Bytes the offending line occupied on the wire.
        got: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
    /// A reconstructed database failed the sanity gates and was rolled
    /// back; the previous snapshot is still being served.
    RefreshRejected {
        /// Human-readable gate failure.
        reason: String,
        /// Whether the rejection pushed the site into quarantine.
        quarantined: bool,
    },
    /// A snapshot-store failure (unreadable directory, corrupt file, bad
    /// checksum, torn write).
    Store(String),
    /// The server answered a client call with an error response.
    Remote(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Wire(e) => write!(f, "{e}"),
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Linalg(e) => write!(f, "{e}"),
            ServeError::Ingest(e) => write!(f, "{e}"),
            ServeError::UnknownSite(s) => write!(f, "unknown site {s:?}"),
            ServeError::SiteExists(s) => write!(f, "site {s:?} already registered"),
            ServeError::Protocol(s) => write!(f, "protocol error: {s}"),
            ServeError::OversizedLine { got, limit } => {
                write!(f, "request line of {got} bytes exceeds the {limit}-byte cap")
            }
            ServeError::RefreshRejected { reason, quarantined } => {
                write!(f, "refresh rejected ({reason}); previous snapshot stays live")?;
                if *quarantined {
                    write!(f, "; site quarantined")?;
                }
                Ok(())
            }
            ServeError::Store(s) => write!(f, "snapshot store: {s}"),
            ServeError::Remote(s) => write!(f, "server error: {s}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<taf_wire::WireError> for ServeError {
    fn from(e: taf_wire::WireError) -> Self {
        // I/O failures inside the wire layer are transport failures, not
        // codec failures; keep them in `Io` so timeout/reset accounting and
        // the client's retry classifier keep seeing them.
        match e {
            taf_wire::WireError::Io(io) => ServeError::Io(io),
            other => ServeError::Wire(other),
        }
    }
}

impl From<tafloc_core::TaflocError> for ServeError {
    fn from(e: tafloc_core::TaflocError) -> Self {
        ServeError::Core(e)
    }
}

impl From<taf_linalg::LinalgError> for ServeError {
    fn from(e: taf_linalg::LinalgError) -> Self {
        ServeError::Linalg(e)
    }
}

impl From<tafloc_ingest::IngestError> for ServeError {
    fn from(e: tafloc_ingest::IngestError) -> Self {
        ServeError::Ingest(e)
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;
    use taf_wire::WireError;

    #[test]
    fn wire_io_failures_stay_transport_errors() {
        let io = WireError::Io(std::io::ErrorKind::TimedOut.into());
        assert!(
            matches!(ServeError::from(io), ServeError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut)
        );
        assert!(matches!(
            ServeError::from(WireError::Truncated),
            ServeError::Wire(WireError::Truncated)
        ));
        let e = ServeError::from(WireError::malformed("bad tag"));
        assert_eq!(e.to_string(), "malformed message: bad tag");
    }

    #[test]
    fn refresh_rejection_says_whether_the_site_was_quarantined() {
        let live = ServeError::RefreshRejected { reason: "non-finite".into(), quarantined: false };
        assert_eq!(live.to_string(), "refresh rejected (non-finite); previous snapshot stays live");
        let held = ServeError::RefreshRejected { reason: "non-finite".into(), quarantined: true };
        assert!(held.to_string().ends_with("; site quarantined"));
        assert_eq!(ServeError::UnknownSite("lab".into()).to_string(), "unknown site \"lab\"");
    }
}
