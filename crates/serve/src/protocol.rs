//! The serving wire protocol, layered on the comms frame format.
//!
//! Requests and replies ride the exact length-prefixed framing the
//! training transport uses (`comms::tcp::framing`), so a serving
//! endpoint speaks the same bytes-on-the-wire dialect as a training
//! rank: `[len | ptype | kind | epoch | id | step | delay | payload]`.
//! The serving dialect claims its own [`Tag::epoch`] magic so a frame
//! from a confused training peer is rejected instead of misread, and
//! reuses the existing [`Kind`]s rather than extending the enum:
//!
//! * [`Kind::P2p`] — inference traffic. A request carries the feature
//!   vector as bit-exact [`Payload::F32`] with a client-chosen `id`;
//!   the reply echoes the `id` and stamps `tag.step` with the
//!   checkpoint step of the model that produced it — the hot-reload
//!   tests key their bitwise oracles off that stamp.
//! * [`Kind::Barrier`] — clean shutdown handshake (`id` 0 request,
//!   `id` 1 ack), mirroring its collective meaning: everyone agrees to
//!   stop.
//! * [`Kind::Telemetry`] — error replies (payload carries the message
//!   text).
//! * [`Kind::Heartbeat`] — liveness ping/pong, echoing the transport's
//!   probe convention (`step` 0 ping, `step` 1 pong).

use comms::{Kind, Message, Payload, Tag};

/// Serving-dialect epoch magic ("SERV"); never collides with training
/// epochs, which start at 0 and bump by 1 per recovery.
pub const PROTO_EPOCH: u32 = 0x5345_5256;

/// How long one frame may sit unwritten, in either direction, before the
/// connection is given up (ten of the 20 ms poll slices): what keeps a
/// peer that stopped reading from parking the thread that answers it.
pub(crate) const WRITE_DEADLINE: std::time::Duration = std::time::Duration::from_millis(200);

/// `Tag::id` of a shutdown request (Barrier).
pub const SHUTDOWN_ID: u64 = 0;
/// `Tag::id` of a shutdown acknowledgement (Barrier).
pub const SHUTDOWN_ACK_ID: u64 = 1;

fn tag(kind: Kind, id: u64, step: u32) -> Tag {
    Tag { epoch: PROTO_EPOCH, kind, id, step }
}

/// An inference request: client-chosen `id`, f32 feature vector.
pub fn request(id: u64, features: Vec<f32>) -> Message {
    Message { tag: tag(Kind::P2p, id, 0), payload: Payload::F32(features) }
}

/// An inference reply: echoes the request `id`, stamps the checkpoint
/// `step` of the serving model (saturated into the u32 tag field).
pub fn reply(id: u64, step: u64, output: Vec<f32>) -> Message {
    let step32 = u32::try_from(step).unwrap_or(u32::MAX);
    Message { tag: tag(Kind::P2p, id, step32), payload: Payload::F32(output) }
}

/// An error reply for request `id` (or 0 when the request could not
/// even be parsed); the payload carries the message text.
pub fn error_reply(id: u64, text: &str) -> Message {
    Message { tag: tag(Kind::Telemetry, id, 0), payload: Payload::Bytes(text.as_bytes().to_vec()) }
}

/// A clean-shutdown request.
pub fn shutdown() -> Message {
    Message { tag: tag(Kind::Barrier, SHUTDOWN_ID, 0), payload: Payload::Bytes(Vec::new()) }
}

/// The server's acknowledgement of a shutdown request.
pub fn shutdown_ack() -> Message {
    Message { tag: tag(Kind::Barrier, SHUTDOWN_ACK_ID, 0), payload: Payload::Bytes(Vec::new()) }
}

/// A liveness ping.
pub fn ping() -> Message {
    Message { tag: tag(Kind::Heartbeat, 0, 0), payload: Payload::Bytes(Vec::new()) }
}

/// The pong answering a ping.
pub fn pong() -> Message {
    Message { tag: tag(Kind::Heartbeat, 0, 1), payload: Payload::Bytes(Vec::new()) }
}

/// Everything a client may send a server.
#[derive(Debug, PartialEq)]
pub enum ServerBound {
    Request { id: u64, features: Vec<f32> },
    Shutdown,
    Ping,
}

/// Everything a server may send a client.
#[derive(Debug, PartialEq)]
pub enum ClientBound {
    Reply { id: u64, step: u64, output: Vec<f32> },
    Error { id: u64, text: String },
    ShutdownAck,
    Pong,
}

/// Classifies a decoded frame arriving at the server. `Err` names the
/// defect; the server answers with [`error_reply`] instead of dying.
pub fn parse_server_bound(msg: Message) -> Result<ServerBound, String> {
    if msg.tag.epoch != PROTO_EPOCH {
        return Err(format!("frame epoch {:#010x} is not the serving dialect", msg.tag.epoch));
    }
    match (msg.tag.kind, msg.payload) {
        (Kind::P2p, Payload::F32(features)) => Ok(ServerBound::Request { id: msg.tag.id, features }),
        (Kind::P2p, p) => Err(format!("request {} payload must be F32, got {p:?}", msg.tag.id)),
        (Kind::Barrier, _) if msg.tag.id == SHUTDOWN_ID => Ok(ServerBound::Shutdown),
        (Kind::Heartbeat, _) if msg.tag.step == 0 => Ok(ServerBound::Ping),
        (kind, _) => Err(format!("unexpected server-bound frame kind {kind:?} id {}", msg.tag.id)),
    }
}

/// Classifies a decoded frame arriving at a client.
pub fn parse_client_bound(msg: Message) -> Result<ClientBound, String> {
    if msg.tag.epoch != PROTO_EPOCH {
        return Err(format!("frame epoch {:#010x} is not the serving dialect", msg.tag.epoch));
    }
    match (msg.tag.kind, msg.payload) {
        (Kind::P2p, Payload::F32(output)) => Ok(ClientBound::Reply {
            id: msg.tag.id,
            step: u64::from(msg.tag.step),
            output,
        }),
        (Kind::Telemetry, Payload::Bytes(b)) => Ok(ClientBound::Error {
            id: msg.tag.id,
            text: String::from_utf8_lossy(&b).into_owned(),
        }),
        (Kind::Barrier, _) if msg.tag.id == SHUTDOWN_ACK_ID => Ok(ClientBound::ShutdownAck),
        (Kind::Heartbeat, _) if msg.tag.step == 1 => Ok(ClientBound::Pong),
        (kind, _) => Err(format!("unexpected client-bound frame kind {kind:?} id {}", msg.tag.id)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comms::tcp::framing;

    fn wire(msg: Message) -> Message {
        let bytes = framing::encode(&msg);
        framing::decode(&bytes[4..]).expect("frame decodes")
    }

    #[test]
    fn request_and_reply_roundtrip_bitwise() {
        let feats = vec![-0.0, f32::MIN_POSITIVE, 1.5e-7, 3.0];
        match parse_server_bound(wire(request(42, feats.clone()))).unwrap() {
            ServerBound::Request { id, features } => {
                assert_eq!(id, 42);
                let got: Vec<u32> = features.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = feats.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "feature bits must survive the wire");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse_client_bound(wire(reply(42, 17, feats.clone()))).unwrap() {
            ClientBound::Reply { id, step, output } => {
                assert_eq!((id, step), (42, 17));
                assert_eq!(output.len(), feats.len());
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn control_frames_classify() {
        assert_eq!(parse_server_bound(wire(shutdown())).unwrap(), ServerBound::Shutdown);
        assert_eq!(parse_server_bound(wire(ping())).unwrap(), ServerBound::Ping);
        assert_eq!(parse_client_bound(wire(shutdown_ack())).unwrap(), ClientBound::ShutdownAck);
        assert_eq!(parse_client_bound(wire(pong())).unwrap(), ClientBound::Pong);
        match parse_client_bound(wire(error_reply(9, "bad shape"))).unwrap() {
            ClientBound::Error { id, text } => assert_eq!((id, text.as_str()), (9, "bad shape")),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn foreign_epoch_is_rejected() {
        let mut msg = request(1, vec![1.0]);
        msg.tag.epoch = 0; // a training-dialect epoch
        assert!(parse_server_bound(msg).is_err());
    }
}
