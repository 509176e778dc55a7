//! The CRC frame both append-only logs are made of:
//!
//! ```text
//! len u32 LE (payload bytes) | crc32(payload) u32 LE | payload
//! ```
//!
//! Only the codec lives here. What a log does around it — a file header,
//! what an undecodable payload means, how a failed append is rolled back —
//! is that log's policy ([`crate::wal`], [`crate::decisions`]).

use crate::crc::crc32;

/// `payload` as one frame.
pub(crate) fn encode(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The frame at `off`: its payload and the offset just past it. `None`
/// when the bytes from `off` are not a whole valid frame — a partial
/// header, a length over `max_len` (a scrambled length word, not an
/// allocation request) or past the end of `bytes`, or a payload that
/// fails its checksum. A log reads frames until the first `None`: that is
/// the end of its trusted prefix.
pub(crate) fn next(bytes: &[u8], off: usize, max_len: u32) -> Option<(&[u8], usize)> {
    let rest = bytes.get(off..)?;
    let (header, body) = rest.split_at_checked(8)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_len {
        return None;
    }
    let payload = body.get(..len as usize)?;
    (crc32(payload) == crc).then_some((payload, off + 8 + payload.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_stop_at_the_first_bad_one() {
        let mut bytes = encode(b"first");
        bytes.extend(encode(b""));
        bytes.extend(encode(b"third"));
        let (a, off) = next(&bytes, 0, 64).unwrap();
        let (b, off) = next(&bytes, off, 64).unwrap();
        let (c, end) = next(&bytes, off, 64).unwrap();
        assert_eq!((a, b, c), (&b"first"[..], &b""[..], &b"third"[..]));
        assert_eq!(end, bytes.len());
        assert!(next(&bytes, end, 64).is_none(), "clean end of input");

        assert!(next(&bytes, 0, 4).is_none(), "length over the cap");
        assert!(next(&bytes[..end - 1], off, 64).is_none(), "runs past EOF");
        assert!(next(&bytes[..off + 5], off, 64).is_none(), "partial header");
        bytes[10] ^= 0x40;
        assert!(next(&bytes, 0, 64).is_none(), "checksum failure");
        assert!(
            next(&bytes, usize::MAX, 64).is_none(),
            "offset out of range"
        );
    }
}
