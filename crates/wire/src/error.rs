//! Structured wire-level errors.
//!
//! Every failure mode a peer can trigger gets its own variant so the serve
//! plane can decide *per kind* whether the connection is still framed (send
//! an error reply and keep reading) or beyond recovery (count it and close),
//! and surface each kind in its `stats` counters.

use std::fmt;

/// Result alias for wire operations.
pub type Result<T> = std::result::Result<T, WireError>;

/// Anything that can go wrong encoding or decoding a wire message.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure underneath the codec.
    Io(std::io::Error),
    /// A v2 frame declared a payload longer than the negotiated cap. The
    /// reader drains the oversized frame before reporting, so the stream is
    /// still framed and the connection can keep serving.
    FrameTooLarge {
        /// Declared payload length in bytes.
        got: usize,
        /// The cap that was exceeded.
        limit: usize,
    },
    /// A frame began with the v2 sniff byte but carried an unknown version
    /// marker. The stream cannot be re-framed; the connection must close.
    BadMagic {
        /// The version byte that followed the sniff byte.
        got: u8,
    },
    /// A v2 payload failed its CRC32 — the frame boundaries were intact, so
    /// the connection survives, but the message is discarded.
    ChecksumMismatch {
        /// Checksum stored in the frame trailer.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// Bytes that must be UTF-8 (a v1 line, an embedded string) are not.
    BadUtf8,
    /// The peer closed the stream mid-frame.
    Truncated,
    /// Structurally invalid content: bad JSON, an unknown message tag, a
    /// wrong field type. The frame itself was well delimited.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::FrameTooLarge { got, limit } => {
                write!(f, "frame of {got} bytes exceeds the {limit}-byte cap")
            }
            WireError::BadMagic { got } => {
                write!(f, "bad magic: unknown wire version byte 0x{got:02X}")
            }
            WireError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: frame says {stored:#010X}, payload is {computed:#010X}"
                )
            }
            WireError::BadUtf8 => write!(f, "invalid UTF-8 on the wire"),
            WireError::Truncated => write!(f, "truncated frame: peer closed mid-message"),
            WireError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        // An EOF in the middle of a read_exact is a peer hanging up
        // mid-frame, which callers want to tell apart from live transport
        // errors (timeouts, resets).
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl WireError {
    /// Convenience constructor for [`WireError::Malformed`].
    pub fn malformed(msg: impl Into<String>) -> Self {
        WireError::Malformed(msg.into())
    }

    /// Names the field a [`WireError::Malformed`] came from (`Type.field: ..`);
    /// every other kind passes through unchanged.
    pub fn in_field(self, ctx: &str, name: &str) -> Self {
        match self {
            WireError::Malformed(msg) => WireError::Malformed(format!("{ctx}.{name}: {msg}")),
            other => other,
        }
    }

    /// True when the failure left the byte stream correctly framed, i.e.
    /// the reader consumed exactly one (bad) message and the connection can
    /// reply with an error frame and keep serving.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            WireError::Malformed(_)
                | WireError::ChecksumMismatch { .. }
                | WireError::FrameTooLarge { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;
    use std::io::ErrorKind;

    #[test]
    fn mid_read_eof_is_truncation_and_other_io_errors_stay_io() {
        let eof: WireError = std::io::Error::from(ErrorKind::UnexpectedEof).into();
        assert!(matches!(eof, WireError::Truncated));
        assert!(eof.source().is_none());
        let reset: WireError = std::io::Error::from(ErrorKind::ConnectionReset).into();
        assert!(matches!(&reset, WireError::Io(e) if e.kind() == ErrorKind::ConnectionReset));
        assert!(reset.source().is_some());
    }

    #[test]
    fn in_field_names_only_malformed_errors() {
        let e = WireError::malformed("expected an integer").in_field("WorldConfig", "seed");
        assert_eq!(e.to_string(), "malformed message: WorldConfig.seed: expected an integer");
        assert!(matches!(WireError::BadUtf8.in_field("A", "b"), WireError::BadUtf8));
        assert!(matches!(WireError::Truncated.in_field("A", "b"), WireError::Truncated));
    }

    #[test]
    fn only_framed_failures_are_recoverable() {
        assert!(WireError::malformed("x").is_recoverable());
        assert!(WireError::ChecksumMismatch { stored: 1, computed: 2 }.is_recoverable());
        assert!(WireError::FrameTooLarge { got: 10, limit: 5 }.is_recoverable());
        assert!(!WireError::BadMagic { got: 0x7F }.is_recoverable());
        assert!(!WireError::BadUtf8.is_recoverable());
        assert!(!WireError::Truncated.is_recoverable());
        assert!(!WireError::Io(ErrorKind::TimedOut.into()).is_recoverable());
    }

    #[test]
    fn display_prints_bytes_and_checksums_in_hex() {
        assert_eq!(
            WireError::BadMagic { got: 0x0A }.to_string(),
            "bad magic: unknown wire version byte 0x0A"
        );
        assert_eq!(
            WireError::ChecksumMismatch { stored: 0xBEEF, computed: 1 }.to_string(),
            "checksum mismatch: frame says 0x0000BEEF, payload is 0x00000001"
        );
        assert_eq!(
            WireError::FrameTooLarge { got: 70, limit: 64 }.to_string(),
            "frame of 70 bytes exceeds the 64-byte cap"
        );
    }
}
