//! Seeded ad-fleet generator: the benchmark's only input.
//!
//! Emits the five ad-platform event types (`bid`, `auction`, `exclusion`,
//! `impression`, `click`) for an open-loop stream of bid requests, with
//! every event of one request sharing its request id across a BidServer,
//! an AdServer and a PresentationServer of one data center. Exclusion
//! reasons come from the platform's own `Targeting::passes` over its
//! default campaign mix, widened with pure-filter line items the way the
//! E07 busy workload does, so each request taps ~100 exclusion sites.
//!
//! Generation is incremental: [`Fleet::generate_until`] emits the requests
//! arriving before a horizon, so memory is bounded by the look-ahead, not
//! by the run. The same seed always yields the same stream, and the
//! running [`Fleet::digest`] fingerprints it. The filtering phase depends
//! only on a request's shape, so identical exclusion events share one
//! value tuple ([`FleetEvent::values`]) instead of allocating their own.

use adplatform::config::{default_exchanges, default_line_items};
use adplatform::events::{
    platform_registry, AuctionEvent, BidEvent, ClickEvent, ExclusionEvent, ImpressionEvent,
    PlatformEvents,
};
use adplatform::{Exchange, ExclusionReason, LineItem, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scrub_core::event::{Event, RequestId, ToEvent};
use scrub_core::schema::EventTypeId;
use scrub_core::value::Value;
use std::collections::HashMap;
use std::rc::Rc;

/// Data centers of the fleet. ScrubCentral and the query server run in
/// the first one; the second ships across the 60 ms WAN link.
pub const DCS: [&str; 2] = ["DC1", "DC2"];
/// Target-clause service names (the same ones `adplatform` uses).
pub const SVC_BID: &str = "BidServers";
pub const SVC_AD: &str = "AdServers";
pub const SVC_PRES: &str = "PresentationServers";

const COUNTRIES: [&str; 4] = ["us", "pt", "de", "jp"];
const CITIES: [&str; 6] = ["san jose", "lisbon", "berlin", "tokyo", "new york", "porto"];
const PUBLISHERS: [&str; 5] = ["news", "sports", "video", "games", "mail"];
const SEGMENTS: u64 = 8;
/// Latest offset (ms) of any event after its request's arrival: the
/// impression and click land at the PresentationServer 40–59 ms later.
pub const MAX_REQUEST_SPAN_MS: i64 = 60;

/// Shape and rate of the replayed fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetParams {
    /// Bid requests per simulated second (Poisson arrivals).
    pub requests_per_sec: f64,
    /// Human user population.
    pub n_users: usize,
    /// Zipf exponent of per-user activity.
    pub zipf_alpha: f64,
    /// BidServers, AdServers and PresentationServers per data center.
    pub hosts_per_dc: [usize; 3],
    /// Probability that a bid wins the exchange's external auction and
    /// becomes an impression.
    pub win_rate: f64,
}

/// One generated event. `values` is shared by every event with the same
/// field values.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    pub type_id: EventTypeId,
    pub request_id: RequestId,
    pub timestamp: i64,
    pub values: Rc<[Value]>,
}

impl FleetEvent {
    /// An owned copy, as the batch oracle takes it.
    pub fn to_event(&self) -> Event {
        Event::new(
            self.type_id,
            self.request_id,
            self.timestamp,
            self.values.to_vec(),
        )
    }
}

/// One replay host of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    pub name: String,
    pub service: &'static str,
    pub dc: &'static str,
}

/// The campaign mix: adplatform's 40 default line items plus 60 that never
/// pass targeting (country "zz"), ids 2000–2059 — filter load only.
pub fn line_items() -> Vec<LineItem> {
    let mut items = default_line_items();
    items.extend((0..60u64).map(|i| {
        let mut li = LineItem::new(2000 + i, 200 + i / 6, 0.3);
        li.targeting.segment = Some((i % SEGMENTS) as u32);
        li.targeting.countries = vec!["zz".into()];
        li
    }));
    items
}

/// The fleet's host inventory, in node order: per DC, BidServers, then
/// AdServers, then PresentationServers.
pub fn hosts(params: &FleetParams) -> Vec<HostSpec> {
    let mut out = Vec::new();
    for dc in DCS {
        for (svc, n) in [SVC_BID, SVC_AD, SVC_PRES]
            .into_iter()
            .zip(params.hosts_per_dc)
        {
            let short = match svc {
                SVC_BID => "bid",
                SVC_AD => "ad",
                _ => "pres",
            };
            for i in 0..n {
                out.push(HostSpec {
                    name: format!("{short}-{}-{i}", dc.to_lowercase()),
                    service: svc,
                    dc,
                });
            }
        }
    }
    out
}

/// The outcome of the filtering phase, which depends only on the
/// request's country, exchange, user segment and publisher.
#[derive(Debug, Default)]
struct Filtering {
    /// Values of each exclusion event, with [`hash_values`] of them.
    excluded: Vec<(Rc<[Value]>, u64)>,
    /// Indices of the line items entering the auction.
    passers: Vec<usize>,
}

/// Incremental, seeded event generator.
pub struct Fleet {
    params: FleetParams,
    rng: StdRng,
    zipf: Zipf,
    items: Vec<LineItem>,
    exchanges: Vec<Exchange>,
    types: PlatformEvents,
    /// Host indices per (dc, service).
    by_role: [[Vec<usize>; 3]; 2],
    next_rid: u64,
    /// Arrival time (ms, fractional) of the next request.
    next_arrival: f64,
    /// Filtering phases already computed, by request shape.
    filterings: HashMap<(&'static str, u32, u32, &'static str), Rc<Filtering>>,
    digest: u64,
    events: u64,
}

impl Fleet {
    /// A fleet whose first request arrives at `start_ms`.
    pub fn new(params: FleetParams, seed: u64, start_ms: i64) -> Self {
        let hosts = hosts(&params);
        let mut by_role: [[Vec<usize>; 3]; 2] = Default::default();
        for (i, h) in hosts.iter().enumerate() {
            let dc = DCS.iter().position(|d| *d == h.dc).expect("known dc");
            let role = [SVC_BID, SVC_AD, SVC_PRES]
                .iter()
                .position(|s| *s == h.service)
                .expect("known service");
            by_role[dc][role].push(i);
        }
        let (_, types) = platform_registry();
        Fleet {
            params,
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(params.n_users, params.zipf_alpha),
            items: line_items(),
            exchanges: default_exchanges(),
            types,
            by_role,
            next_rid: 1,
            next_arrival: start_ms as f64,
            filterings: HashMap::new(),
            digest: 0,
            events: 0,
        }
    }

    /// Number of hosts events are generated for.
    pub fn host_count(&self) -> usize {
        self.by_role.iter().flatten().map(Vec::len).sum()
    }

    /// Fingerprint of every event generated so far (a multiplicative
    /// word hash over host, type, request id, timestamp and values, in
    /// generation order).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Events generated so far.
    pub fn events_generated(&self) -> u64 {
        self.events
    }

    /// Generate every request arriving before `until_ms`, appending each
    /// event to its host's vector in `out` (indexed like [`hosts`]).
    /// Events of one request may carry timestamps up to
    /// [`MAX_REQUEST_SPAN_MS`] past its arrival.
    pub fn generate_until(&mut self, until_ms: i64, out: &mut [Vec<FleetEvent>]) {
        let rate_per_ms = self.params.requests_per_sec / 1000.0;
        while self.next_arrival < until_ms as f64 {
            let t0 = self.next_arrival.floor() as i64;
            self.request(t0, out);
            let u: f64 = self.rng.gen();
            self.next_arrival += -(1.0 - u).ln() / rate_per_ms;
        }
    }

    /// Append `ev` to `host`'s events; `values_hash` is
    /// [`hash_values`] of its values.
    fn emit(&mut self, out: &mut [Vec<FleetEvent>], host: usize, ev: FleetEvent, values_hash: u64) {
        let mut h = mix(self.digest, host as u64);
        h = mix(h, u64::from(ev.type_id.0));
        h = mix(h, ev.request_id.0);
        h = mix(h, ev.timestamp as u64);
        self.digest = mix(h, values_hash);
        self.events += 1;
        out[host].push(ev);
    }

    fn emit_new(
        &mut self,
        out: &mut [Vec<FleetEvent>],
        host: usize,
        (type_id, request_id, timestamp): (EventTypeId, RequestId, i64),
        values: Vec<Value>,
    ) {
        let h = hash_values(&values);
        let ev = FleetEvent {
            type_id,
            request_id,
            timestamp,
            values: values.into(),
        };
        self.emit(out, host, ev, h);
    }

    /// The filtering phase for one request shape: the exclusion events'
    /// values (with their hashes) and the line items that pass.
    fn filter(
        &self,
        country: &str,
        exchange_id: u32,
        floor: f64,
        segment: u32,
        publisher: &str,
    ) -> Filtering {
        let mut f = Filtering::default();
        for (i, li) in self.items.iter().enumerate() {
            let reason = li
                .targeting
                .passes(country, exchange_id, &[segment])
                .err()
                .or((li.advisory_price < floor).then_some(ExclusionReason::PriceFloor));
            match reason {
                Some(r) => {
                    let values = ExclusionEvent {
                        line_item_id: li.id as i64,
                        campaign_id: li.campaign_id as i64,
                        reason: r.as_str().to_string(),
                        exchange_id: exchange_id as i64,
                        publisher: publisher.to_string(),
                    }
                    .into_values();
                    let h = hash_values(&values);
                    f.excluded.push((values.into(), h));
                }
                None => f.passers.push(i),
            }
        }
        f
    }

    fn pick(&mut self, dc: usize, role: usize) -> usize {
        let hosts = &self.by_role[dc][role];
        hosts[self.rng.gen_range(0..hosts.len())]
    }

    /// One bid request: filtering phase and internal auction at an
    /// AdServer, bid response at a BidServer, and — if the exchange's
    /// external auction is won — impression and click at a
    /// PresentationServer.
    fn request(&mut self, t0: i64, out: &mut [Vec<FleetEvent>]) {
        let rid = RequestId(self.next_rid);
        self.next_rid += 1;
        let dc = self.rng.gen_range(0..DCS.len());
        let bid_host = self.pick(dc, 0);
        let ad_host = self.pick(dc, 1);
        let pres_host = self.pick(dc, 2);
        let user = self.zipf.sample(&mut self.rng) as u64;
        let segment = (user % SEGMENTS) as u32;
        let exchange = self.rng.gen_range(0..self.exchanges.len());
        let (exchange_id, floor) = (
            self.exchanges[exchange].id,
            self.exchanges[exchange].floor_price,
        );
        let country = COUNTRIES[self.rng.gen_range(0..COUNTRIES.len())];
        let city = CITIES[self.rng.gen_range(0..CITIES.len())];
        let publisher = PUBLISHERS[self.rng.gen_range(0..PUBLISHERS.len())];

        // filtering phase (AdServer, 1 ms after arrival)
        let t_ad = t0 + 1;
        let key = (country, exchange_id, segment, publisher);
        let filtering = match self.filterings.get(&key) {
            Some(f) => f.clone(),
            None => {
                let f = Rc::new(self.filter(country, exchange_id, floor, segment, publisher));
                self.filterings.insert(key, f.clone());
                f
            }
        };
        for (values, hash) in &filtering.excluded {
            let ev = FleetEvent {
                type_id: self.types.exclusion,
                request_id: rid,
                timestamp: t_ad,
                values: values.clone(),
            };
            self.emit(out, ad_host, ev, *hash);
        }
        let passers = &filtering.passers;
        if passers.is_empty() {
            return;
        }

        // internal auction: score-adjusted bids within ±15% of advisory
        let mut ids = Vec::with_capacity(passers.len());
        let mut prices = Vec::with_capacity(passers.len());
        let mut best = (0usize, f64::MIN);
        for &i in passers {
            let price = self.items[i].advisory_price * (0.85 + 0.30 * self.rng.gen::<f64>());
            ids.push(self.items[i].id as i64);
            prices.push(price);
            if price > best.1 {
                best = (i, price);
            }
        }
        let (winner, price) = (self.items[best.0].clone(), best.1);
        let auction = AuctionEvent {
            line_item_ids: ids,
            bid_prices: prices,
            winner_line_item_id: winner.id as i64,
            winner_price: price,
            exchange_id: exchange_id as i64,
        }
        .into_values();
        self.emit_new(out, ad_host, (self.types.auction, rid, t_ad), auction);

        // bid response (BidServer, 2 ms after arrival)
        let bid = BidEvent {
            user_id: user as i64,
            exchange_id: exchange_id as i64,
            line_item_id: winner.id as i64,
            campaign_id: winner.campaign_id as i64,
            bid_price: price,
            country: country.to_string(),
            city: city.to_string(),
        }
        .into_values();
        self.emit_new(out, bid_host, (self.types.bid, rid, t0 + 2), bid);

        // external auction, then impression and click
        if self.rng.gen::<f64>() >= self.params.win_rate {
            return;
        }
        let t_imp = t0 + 40 + self.rng.gen_range(0..MAX_REQUEST_SPAN_MS - 40);
        let model = if pres_host.is_multiple_of(2) {
            "A"
        } else {
            "B"
        };
        let impression = ImpressionEvent {
            user_id: user as i64,
            line_item_id: winner.id as i64,
            campaign_id: winner.campaign_id as i64,
            exchange_id: exchange_id as i64,
            cost: price / 1000.0,
            model: model.to_string(),
        }
        .into_values();
        let imp = (self.types.impression, rid, t_imp);
        self.emit_new(out, pres_host, imp, impression);
        if self.rng.gen::<f64>() < winner.base_ctr {
            let click = ClickEvent {
                user_id: user as i64,
                line_item_id: winner.id as i64,
                campaign_id: winner.campaign_id as i64,
                exchange_id: exchange_id as i64,
                model: model.to_string(),
            }
            .into_values();
            let click_id = (self.types.click, rid, t_imp);
            self.emit_new(out, pres_host, click_id, click);
        }
    }
}

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h, u64::from_le_bytes(tail) ^ (bytes.len() as u64) << 56)
}

fn hash_values(values: &[Value]) -> u64 {
    values.iter().fold(0, hash_value)
}

fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Long(x) => mix(mix(h, 1), *x as u64),
        Value::Double(x) => mix(mix(h, 2), x.to_bits()),
        Value::Str(s) => hash_bytes(mix(h, 3), s.as_bytes()),
        Value::List(items) => items.iter().fold(mix(h, 4), hash_value),
        other => hash_bytes(mix(h, 5), other.to_string().as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FleetParams {
        FleetParams {
            requests_per_sec: 200.0,
            n_users: 1_000,
            zipf_alpha: 1.0,
            hosts_per_dc: [2, 2, 1],
            win_rate: 0.5,
        }
    }

    fn run(seed: u64) -> (u64, u64, Vec<Vec<FleetEvent>>) {
        let mut f = Fleet::new(params(), seed, 0);
        let mut out = vec![Vec::new(); f.host_count()];
        f.generate_until(500, &mut out);
        f.generate_until(2_000, &mut out);
        (f.digest(), f.events_generated(), out)
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        let (d1, n1, e1) = run(5);
        let (d2, n2, e2) = run(5);
        assert_eq!((d1, n1), (d2, n2));
        assert_eq!(e1, e2);
        assert!(n1 > 1_000);
        let (d3, _, _) = run(6);
        assert_ne!(d1, d3);
    }

    #[test]
    fn slicing_does_not_change_the_stream() {
        let mut a = Fleet::new(params(), 9, 0);
        let mut b = Fleet::new(params(), 9, 0);
        let mut oa = vec![Vec::new(); a.host_count()];
        let mut ob = vec![Vec::new(); b.host_count()];
        a.generate_until(2_000, &mut oa);
        for t in (100..=2_000).step_by(100) {
            b.generate_until(t, &mut ob);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(oa, ob);
    }

    #[test]
    fn requests_share_ids_across_tiers() {
        let (_, _, out) = run(1);
        let hosts = hosts(&params());
        let rid_of = |svc: &str| -> std::collections::BTreeSet<u64> {
            hosts
                .iter()
                .zip(&out)
                .filter(|(h, _)| h.service == svc)
                .flat_map(|(_, evs)| evs.iter().map(|e| e.request_id.0))
                .collect()
        };
        let (bid, ad, pres) = (rid_of(SVC_BID), rid_of(SVC_AD), rid_of(SVC_PRES));
        assert!(!pres.is_empty());
        assert!(bid.is_subset(&ad));
        assert!(pres.is_subset(&bid));
    }
}
