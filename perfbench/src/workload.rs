//! The benchmark's workloads: a fleet shape and rate plus a concurrent
//! query mix, each chosen to load a different layer of the pipeline.

use crate::fleet::{FleetParams, HostSpec, SVC_BID};

/// Query span. Every query is cancelled when the measured interval ends,
/// so the span only has to outlast any run.
const SPAN: &str = "duration 6 h";

/// Simulated time the pipeline advances per measured step (ms): tens of
/// thousands of steps a run.
pub const STEP_MS: i64 = 20;

/// One query of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Short label used in reports.
    pub name: String,
    /// ScrubQL source.
    pub src: String,
    /// Host- or event-sampled: checked against the loss-ledger identity
    /// and its nominal sampling rate instead of the batch oracle's rows.
    pub sampled_events: Option<f64>,
}

impl QuerySpec {
    fn exact(name: impl Into<String>, src: String) -> Self {
        QuerySpec {
            name: name.into(),
            src,
            sampled_events: None,
        }
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five §2 use-case queries of E19, run concurrently.
    Usecases,
    /// Unfiltered, unsampled aggregates: every active event is shipped.
    Firehose,
    /// 32 selective queries that almost never match: tap-bound.
    Needle,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Usecases, Workload::Firehose, Workload::Needle];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Usecases => "usecases",
            Workload::Firehose => "firehose",
            Workload::Needle => "needle",
        }
    }

    /// Fleet shape and rate. Rates are sized so one run of a few wall
    /// seconds covers minutes of simulated time on one core.
    pub fn fleet(self) -> FleetParams {
        let base = FleetParams {
            requests_per_sec: 400.0,
            n_users: 20_000,
            zipf_alpha: 1.05,
            hosts_per_dc: [3, 3, 2],
            win_rate: 0.5,
        };
        match self {
            Workload::Usecases | Workload::Needle => base,
            // a large, mildly skewed user population, so `group by
            // user_id` holds many groups
            Workload::Firehose => FleetParams {
                requests_per_sec: 200.0,
                n_users: 200_000,
                zipf_alpha: 0.8,
                ..base
            },
        }
    }

    /// The concurrent query mix, instantiated against the fleet's hosts.
    pub fn queries(self, hosts: &[HostSpec]) -> Vec<QuerySpec> {
        match self {
            Workload::Usecases => usecases(hosts),
            Workload::Firehose => firehose(),
            Workload::Needle => needle(),
        }
    }
}

/// E19's five use-case queries. The A/B query investigates line item
/// 1011: untargeted and at the top advisory price, it wins the most
/// auctions under this campaign mix.
fn usecases(hosts: &[HostSpec]) -> Vec<QuerySpec> {
    let spam_host = &hosts
        .iter()
        .find(|h| h.service == SVC_BID)
        .expect("fleet has a BidServer")
        .name;
    vec![
        QuerySpec::exact(
            "spam_users",
            format!(
                "Select bid.user_id, COUNT(*) from bid \
                 @[Service in BidServers and Server = '{spam_host}'] \
                 group by bid.user_id window 10 s {SPAN}"
            ),
        ),
        QuerySpec {
            name: "new_exchange".into(),
            src: format!(
                "select impression.exchange_id, COUNT(*) from impression \
                 @[Service in PresentationServers] \
                 sample hosts 50% events 10% \
                 group by impression.exchange_id window 10 s {SPAN}"
            ),
            sampled_events: Some(0.10),
        },
        QuerySpec::exact(
            "ab_test",
            format!(
                "Select 1000*AVG(impression.cost) from impression \
                 where impression.line_item_id = 1011 \
                 @[Service in PresentationServers] window 1 m {SPAN}"
            ),
        ),
        QuerySpec::exact(
            "exclusions",
            format!(
                "Select exclusion.reason, COUNT(*) from bid, exclusion \
                 where exclusion.line_item_id = 2000 and bid.exchange_id = 0 \
                 @[Service in BidServers or Service in AdServers] \
                 group by exclusion.reason window 1 m {SPAN}"
            ),
        ),
        QuerySpec::exact(
            "cannibalization",
            format!(
                "Select impression.line_item_id, COUNT(*), AVG(auction.winner_price) \
                 from auction, impression \
                 where contains(auction.line_item_ids, 1000) \
                 @[Service in AdServers or Service in PresentationServers] \
                 group by impression.line_item_id window 1 m {SPAN}"
            ),
        ),
    ]
}

/// Eight unfiltered aggregates over every event type, several grouped by
/// high-cardinality keys.
fn firehose() -> Vec<QuerySpec> {
    [
        ("bid_by_user", "select bid.user_id, COUNT(*), SUM(bid.bid_price) from bid @[all] group by bid.user_id"),
        ("exclusion_by_item_reason", "select exclusion.line_item_id, exclusion.reason, COUNT(*) from exclusion @[all] group by exclusion.line_item_id, exclusion.reason"),
        ("impression_by_user", "select impression.user_id, COUNT(*), AVG(impression.cost) from impression @[all] group by impression.user_id"),
        ("distinct_bidders", "select COUNT_DISTINCT(bid.user_id), COUNT(*) from bid @[all]"),
        ("bid_price_by_market", "select bid.exchange_id, bid.country, AVG(bid.bid_price), MAX(bid.bid_price) from bid @[all] group by bid.exchange_id, bid.country"),
        ("auction_by_exchange", "select auction.exchange_id, COUNT(*), AVG(auction.winner_price) from auction @[all] group by auction.exchange_id"),
        ("exclusion_by_campaign", "select exclusion.campaign_id, exclusion.publisher, COUNT(*) from exclusion @[all] group by exclusion.campaign_id, exclusion.publisher"),
        ("click_by_item", "select click.line_item_id, click.model, COUNT(*) from click @[all] group by click.line_item_id, click.model"),
    ]
    .into_iter()
    .map(|(name, q)| QuerySpec::exact(name, format!("{q} window 10 s {SPAN}")))
    .collect()
}

/// 32 selective queries: equality on values that never or rarely occur,
/// `contains()` on line items that never enter an auction, and two-clause
/// conjunctions whose second clause never holds. Two match a few events
/// per window (a mid-tail user's impressions; clicks on one line item
/// from one exchange), so there are rows to check.
fn needle() -> Vec<QuerySpec> {
    let mut q: Vec<(String, String)> = Vec::new();
    for k in 0..10 {
        let src = if k % 2 == 0 {
            format!(
                "select COUNT(*) from exclusion where exclusion.line_item_id = {} @[all]",
                3000 + k
            )
        } else {
            format!(
                "select COUNT(*) from exclusion where exclusion.line_item_id = {} \
                 and exclusion.exchange_id = 9 @[all]",
                2000 + k
            )
        };
        q.push((format!("exclusion_{k}"), src));
    }
    for k in 0..8 {
        q.push((
            format!("auction_{k}"),
            format!(
                "select COUNT(*) from auction where contains(auction.line_item_ids, {}) @[all]",
                2010 + k
            ),
        ));
    }
    for k in 0..6 {
        let src = if k % 2 == 0 {
            format!(
                "select COUNT(*) from bid where bid.user_id = {} @[all]",
                10_000_000 + k
            )
        } else {
            format!(
                "select COUNT(*) from bid where bid.line_item_id = {} \
                 and bid.country = 'us' @[all]",
                2020 + k
            )
        };
        q.push((format!("bid_{k}"), src));
    }
    q.push((
        "impression_user".into(),
        "select impression.line_item_id, COUNT(*) from impression \
         where impression.user_id = 100 @[all] group by impression.line_item_id"
            .into(),
    ));
    for k in 1..4 {
        q.push((
            format!("impression_{k}"),
            format!(
                "select COUNT(*) from impression where impression.user_id = {} @[all]",
                10_000_000 + k
            ),
        ));
    }
    q.push((
        "click_item".into(),
        "select click.model, COUNT(*) from click \
         where click.line_item_id = 1011 and click.exchange_id = 2 @[all] group by click.model"
            .into(),
    ));
    for k in 1..4 {
        q.push((
            format!("click_{k}"),
            format!(
                "select COUNT(*) from click where click.line_item_id = {} @[all]",
                3100 + k
            ),
        ));
    }
    q.into_iter()
        .map(|(name, src)| QuerySpec::exact(name, format!("{src} window 10 s {SPAN}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::hosts;

    #[test]
    fn names_round_trip_and_mixes_have_the_documented_sizes() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let h = hosts(&Workload::Usecases.fleet());
        assert_eq!(Workload::Usecases.queries(&h).len(), 5);
        assert_eq!(Workload::Firehose.queries(&h).len(), 8);
        assert_eq!(Workload::Needle.queries(&h).len(), 32);
    }
}
