//! Deterministic request trace identity.
//!
//! The experiment server needs every request to carry a trace id that
//! is a *pure function* of the request — the same `(fingerprint,
//! seed)` must yield the same id across `--jobs` levels, repeats, and
//! server restarts, so a flight-recorder lookup by id is stable and
//! two loadgen runs against fresh servers sample identical traces.
//! Random ids (the usual W3C practice) would break all of that, so
//! ids here are derived: two FNV-1a-64 passes over the fingerprint
//! with the seed folded in, rendered as the 32-hex-digit trace-id a
//! `traceparent` header expects.
//!
//! The wire format is W3C Trace Context
//! (`00-<32 hex trace-id>-<16 hex parent-id>-01`): a client that
//! already carries a trace can pass its own `traceparent` and the
//! server adopts that id instead of deriving one.

use crate::hash::{fnv1a64, FNV_BASIS};

/// Derive the 32-hex-digit trace id for `(fingerprint, seed)`. The
/// two halves come from independent FNV passes (the second one is
/// salted), so distinct fingerprints that collide in one half still
/// separate in the other.
pub fn derive_trace_id(fingerprint: &str, seed: u64) -> String {
    let mut salted = Vec::with_capacity(fingerprint.len() + 8);
    salted.extend_from_slice(fingerprint.as_bytes());
    salted.extend_from_slice(&seed.to_le_bytes());
    let hi = fnv1a64(&salted, FNV_BASIS);
    salted.extend_from_slice(&hi.to_le_bytes());
    let lo = fnv1a64(&salted, FNV_BASIS);
    format!("{hi:016x}{lo:016x}")
}

/// Derive the 16-hex-digit span (parent) id the server answers with
/// — a pure function of the trace id, for the same reason.
pub fn derive_span_id(trace_id: &str) -> String {
    format!("{:016x}", fnv1a64(trace_id.as_bytes(), FNV_BASIS))
}

/// Render a W3C `traceparent` header value for `trace_id`.
pub fn render_traceparent(trace_id: &str) -> String {
    format!("00-{trace_id}-{}-01", derive_span_id(trace_id))
}

fn is_lower_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Whether `id` is a well-formed trace id (32 lowercase hex digits,
/// not all zero) — the shape [`derive_trace_id`] produces and the
/// only shape the recorder indexes.
pub fn valid_trace_id(id: &str) -> bool {
    id.len() == 32 && is_lower_hex(id) && id.bytes().any(|b| b != b'0')
}

/// Extract the trace id from a `traceparent` header value, if it is
/// well-formed (`00-<32 hex>-<16 hex>-<2 hex>`); malformed values are
/// ignored rather than refused, per the W3C spec.
pub fn parse_traceparent(value: &str) -> Option<String> {
    let mut parts = value.trim().split('-');
    let (version, trace_id, parent_id, flags) =
        (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() && version == "00" {
        return None; // version 00 takes exactly four fields
    }
    if version.len() != 2 || !is_lower_hex(version) || version == "ff" {
        return None;
    }
    if !valid_trace_id(trace_id) {
        return None;
    }
    if parent_id.len() != 16 || !is_lower_hex(parent_id) || flags.len() != 2 || !is_lower_hex(flags)
    {
        return None;
    }
    Some(trace_id.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_pure_functions_of_fingerprint_and_seed() {
        let a = derive_trace_id("run|t0|lud|base|caps-cuda-k40|smoke|7", 7);
        let b = derive_trace_id("run|t0|lud|base|caps-cuda-k40|smoke|7", 7);
        assert_eq!(a, b);
        assert!(valid_trace_id(&a), "{a}");
        let c = derive_trace_id("run|t0|lud|base|caps-cuda-k40|smoke|8", 8);
        assert_ne!(a, c, "different seeds derive different ids");
        let d = derive_trace_id("stream|t0|lud|base|caps-cuda-k40|smoke|7", 7);
        assert_ne!(a, d, "different fingerprints derive different ids");
    }

    #[test]
    fn traceparent_round_trips() {
        let id = derive_trace_id("x", 1);
        let tp = render_traceparent(&id);
        assert_eq!(parse_traceparent(&tp).as_deref(), Some(id.as_str()));
    }

    #[test]
    fn malformed_traceparents_are_ignored() {
        for bad in [
            "",
            "00-short-0000000000000001-01",
            "00-00000000000000000000000000000000-0000000000000001-01", // all-zero id
            "00-ABCDEF00000000000000000000000000-0000000000000001-01", // uppercase
            "ff-abcdef00000000000000000000000000-0000000000000001-01", // forbidden version
            "00-abcdef00000000000000000000000000-0000000000000001-01-extra",
            "00-abcdef00000000000000000000000000-01",
        ] {
            assert_eq!(parse_traceparent(bad), None, "{bad:?}");
        }
        // A future version may carry extra fields.
        assert!(parse_traceparent(
            "cc-abcdef00000000000000000000000000-0000000000000001-01-future"
        )
        .is_some());
    }
}
