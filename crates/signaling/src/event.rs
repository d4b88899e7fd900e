//! Signaling event records.
//!
//! Matches the schema of Section 2.2: "Each event we capture carries the
//! anonymized user ID, SIM MCC and MNC, TAC, the radio sector ID handling
//! the communication, timestamp, and event result code (success /
//! failure)."

use crate::tac::TacCode;
use cellscope_radio::CellId;
use serde::{Deserialize, Serialize};

/// Mobile Country Code of the studied (UK) network.
pub const UK_MCC: u16 = 234;
/// Mobile Network Code of the synthetic MNO.
pub const HOME_MNC: u8 = 10;

/// The control-plane event types listed in Section 2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventType {
    /// Initial network attachment.
    Attach,
    /// Authentication exchange.
    Authentication,
    /// PDN session establishment.
    SessionEstablishment,
    /// Dedicated bearer set up (e.g. a VoLTE QCI-1 bearer for a call).
    DedicatedBearerEstablish,
    /// Dedicated bearer teardown.
    DedicatedBearerDelete,
    /// Tracking Area Update on mobility.
    TrackingAreaUpdate,
    /// Transition to ECM-IDLE.
    IdleTransition,
    /// UE-initiated service request (leaving idle for data).
    ServiceRequest,
    /// Inter-cell handover.
    Handover,
    /// Network detach.
    Detach,
}

impl EventType {
    /// All event types.
    pub const ALL: [EventType; 10] = [
        EventType::Attach,
        EventType::Authentication,
        EventType::SessionEstablishment,
        EventType::DedicatedBearerEstablish,
        EventType::DedicatedBearerDelete,
        EventType::TrackingAreaUpdate,
        EventType::IdleTransition,
        EventType::ServiceRequest,
        EventType::Handover,
        EventType::Detach,
    ];

    /// The variant's name: its serde (and so JSONL) form.
    pub fn name(self) -> &'static str {
        match self {
            EventType::Attach => "Attach",
            EventType::Authentication => "Authentication",
            EventType::SessionEstablishment => "SessionEstablishment",
            EventType::DedicatedBearerEstablish => "DedicatedBearerEstablish",
            EventType::DedicatedBearerDelete => "DedicatedBearerDelete",
            EventType::TrackingAreaUpdate => "TrackingAreaUpdate",
            EventType::IdleTransition => "IdleTransition",
            EventType::ServiceRequest => "ServiceRequest",
            EventType::Handover => "Handover",
            EventType::Detach => "Detach",
        }
    }

    /// Whether this event implies the UE changed serving cell.
    pub fn is_mobility_event(self) -> bool {
        matches!(self, EventType::TrackingAreaUpdate | EventType::Handover)
    }
}

/// One captured control-plane event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalingEvent {
    /// Anonymized, study-stable user identifier.
    pub anon_id: u64,
    /// SIM Mobile Country Code (non-UK ⇒ inbound roamer).
    pub mcc: u16,
    /// SIM Mobile Network Code.
    pub mnc: u8,
    /// Device Type Allocation Code.
    pub tac: TacCode,
    /// Radio sector (cell) handling the communication.
    pub cell: CellId,
    /// Study day.
    pub day: u16,
    /// Minute of the day, 0–1439.
    pub minute: u16,
    /// Event type.
    pub event: EventType,
    /// Result code: `true` = success.
    pub success: bool,
}

impl SignalingEvent {
    /// Whether the SIM is native to the studied MNO.
    pub fn is_native(&self) -> bool {
        self.mcc == UK_MCC && self.mnc == HOME_MNC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nativity_check() {
        let mut ev = SignalingEvent {
            anon_id: 1,
            mcc: UK_MCC,
            mnc: HOME_MNC,
            tac: TacCode(35_000_000),
            cell: CellId(0),
            day: 0,
            minute: 0,
            event: EventType::Attach,
            success: true,
        };
        assert!(ev.is_native());
        ev.mcc = 208; // France
        assert!(!ev.is_native());
        ev.mcc = UK_MCC;
        ev.mnc = 15; // different UK operator roaming in
        assert!(!ev.is_native());
    }

    #[test]
    fn mobility_event_classification() {
        assert!(EventType::Handover.is_mobility_event());
        assert!(EventType::TrackingAreaUpdate.is_mobility_event());
        assert!(!EventType::ServiceRequest.is_mobility_event());
        assert!(!EventType::Attach.is_mobility_event());
    }
}
