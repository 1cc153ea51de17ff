#![warn(missing_docs)]

//! Workloads and dataset synthesis: the stand-ins for the paper's
//! proprietary and restricted data.
//!
//! Every dataset in the paper's Table 2 that the reproduction cannot
//! download is synthesized here from the simulated world, preserving the
//! *structure* the analysis depends on (granularity, coverage, bias,
//! noise):
//!
//! * [`users`] — ground-truth user populations plus the two derived
//!   user-count views (Microsoft-style per-IP counts, APNIC-style per-AS
//!   estimates),
//! * [`ditl`] — the 48-hour DITL capture campaign across root letters,
//! * [`atlas`] — the RIPE-Atlas-style probe panel with its coverage bias,
//! * [`browse`] — browsing-session query streams for the local resolver
//!   experiments (ISI traces, author workstations, GTmetrix replay),
//! * [`geoloc`] — MaxMind-style geolocation with stable per-prefix error,
//! * [`pcap`] — packet-level expansion of the rate-level DITL rows for a
//!   recursive sample, with route dynamics (App. B.2 / §8 affinity).

pub mod atlas;
pub mod browse;
pub mod ditl;
pub mod geoloc;
pub mod pcap;
pub mod users;

pub use atlas::AtlasPanel;
pub use browse::{BrowseConfig, BrowseGenerator};
pub use ditl::{DitlConfig, DitlDataset};
pub use geoloc::{GeolocError, Geolocator};
pub use users::{ApnicUserCounts, CdnUserCounts, UserConfig, UserPopulation};
