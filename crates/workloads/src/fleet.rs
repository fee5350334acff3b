//! Per-collector MRT archive generation — the bridge from a simulated
//! scenario to a realistic multi-collector ingestion workload.
//!
//! Real pipelines do not receive one merged stream: they download one
//! updates archive *per collector* (RIS `rrc00`–`rrc23`, Route Views
//! `route-views2`, …) and merge at read time. This module partitions a
//! [`ScenarioOutput`] the same way: one [`CollectorArchive`] per
//! `(dataset, collector)` pair of the deployment, serialized with
//! [`write_updates`] and named with [`archive_stamp`], so a synthetic
//! RIS + RV + PCH + CDN fleet can be written out and re-ingested end to
//! end through a [`CollectorFleet`].

use std::collections::BTreeMap;

use bh_mrt::MrtError;
use bh_routing::archive::{archive_stamp, write_updates};
use bh_routing::{BgpElem, CollectorDeployment, CollectorFleet, DataSource};
use bytes::Bytes;

use crate::scenario::ScenarioOutput;

/// One serialized per-collector updates archive.
#[derive(Debug, Clone)]
pub struct CollectorArchive {
    /// Platform the archive belongs to.
    pub dataset: DataSource,
    /// Collector id within the platform.
    pub collector: u16,
    /// BGPStream-style archive name
    /// (`<platform>.rc<collector>.updates.<stamp>.mrt`).
    pub name: String,
    /// The MRT bytes, refcounted so every fleet built over the archive
    /// shares one allocation instead of copying it.
    pub bytes: Bytes,
    /// Elements serialized into the archive.
    pub elems: u64,
}

/// The elems of each `(dataset, collector)` pair, borrowed in stream
/// order (the copy-free form of `split_by_collector`).
fn by_collector(elems: &[BgpElem]) -> BTreeMap<(DataSource, u16), Vec<&BgpElem>> {
    let mut out: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for elem in elems {
        out.entry((elem.dataset, elem.collector)).or_default().push(elem);
    }
    out
}

fn archive_of(
    dataset: DataSource,
    collector: u16,
    elems: &[&BgpElem],
) -> Result<CollectorArchive, MrtError> {
    let mut bytes = Vec::new();
    write_updates(&mut bytes, elems.iter().copied())?;
    let stamp = elems.first().map(|e| archive_stamp(e.time)).unwrap_or_else(|| "empty".into());
    Ok(CollectorArchive {
        dataset,
        collector,
        name: format!("{}.rc{collector:02}.updates.{stamp}.mrt", dataset.label().to_lowercase()),
        bytes: Bytes::from(bytes),
        elems: elems.len() as u64,
    })
}

/// Partition an element stream into per-collector archives. Only
/// collectors that observed something appear; see
/// [`fleet_archives_for`] to cover a whole deployment including silent
/// collectors.
pub fn fleet_archives(elems: &[BgpElem]) -> Result<Vec<CollectorArchive>, MrtError> {
    by_collector(elems)
        .into_iter()
        .map(|((dataset, collector), bucket)| archive_of(dataset, collector, &bucket))
        .collect()
}

/// Partition an element stream into one archive per `(dataset,
/// collector)` pair of `deployment` — silent collectors yield empty
/// archives, exactly like a real quiet interval. The partition is
/// lossless: elements labelled with a pair the deployment does not
/// know (a stream from an older or foreign deployment) still get their
/// archive rather than being dropped.
pub fn fleet_archives_for(
    deployment: &CollectorDeployment,
    elems: &[BgpElem],
) -> Result<Vec<CollectorArchive>, MrtError> {
    let buckets = by_collector(elems);
    let mut ids = deployment.collector_ids();
    ids.extend(buckets.keys().copied());
    ids.into_iter()
        .map(|(dataset, collector)| {
            let bucket = buckets.get(&(dataset, collector)).map(Vec::as_slice).unwrap_or(&[]);
            archive_of(dataset, collector, bucket)
        })
        .collect()
}

/// Assemble a [`CollectorFleet`] over a set of archives (strict
/// decoding).
pub fn fleet_of(archives: &[CollectorArchive]) -> CollectorFleet {
    let mut fleet = CollectorFleet::new();
    for archive in archives {
        fleet.add_archive_bytes(archive.bytes.clone(), archive.dataset, archive.collector);
    }
    fleet
}

impl ScenarioOutput {
    /// The collector stream as per-collector MRT archives — the input
    /// shape of a [`CollectorFleet`] ingestion run.
    pub fn fleet_archives(&self) -> Result<Vec<CollectorArchive>, MrtError> {
        fleet_archives(&self.elems)
    }
}

#[cfg(test)]
mod tests {
    use bh_routing::{collect_source, deploy, merge_streams, split_by_collector, CollectorConfig};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;
    use crate::scenario::{run, ScenarioConfig};

    fn scenario() -> (CollectorDeployment, ScenarioOutput) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        let output = run(&t, d.clone(), &ScenarioConfig::short(3, 3, 6.0), None);
        (d, output)
    }

    #[test]
    fn archives_partition_the_stream_losslessly() {
        let (_, output) = scenario();
        let archives = output.fleet_archives().expect("serialization succeeds");
        assert!(archives.len() >= 2, "expected several collectors");
        let total: u64 = archives.iter().map(|a| a.elems).sum();
        assert_eq!(total, output.elems.len() as u64);
        for archive in &archives {
            assert!(archive.name.contains("updates."));
            assert!(archive.name.starts_with(&archive.dataset.label().to_lowercase()));
            assert_eq!(archive.elems == 0, archive.bytes.is_empty());
        }
    }

    #[test]
    fn deployment_archives_include_silent_collectors() {
        let (deployment, output) = scenario();
        let archives = fleet_archives_for(&deployment, &output.elems).expect("serialize");
        assert_eq!(archives.len(), deployment.collector_ids().len());
        let observed = output.fleet_archives().unwrap();
        assert!(archives.len() >= observed.len());
        let total: u64 = archives.iter().map(|a| a.elems).sum();
        assert_eq!(total, output.elems.len() as u64);
    }

    #[test]
    fn deployment_archives_keep_foreign_collector_elems() {
        // Elements labelled with a pair the deployment never deployed
        // (e.g. a stream recorded under an older deployment) must not
        // be silently dropped.
        let (deployment, output) = scenario();
        let mut elems = output.elems.clone();
        let foreign = 999u16;
        assert!(!deployment.collector_ids().contains(&(DataSource::Ris, foreign)));
        elems[0].dataset = DataSource::Ris;
        elems[0].collector = foreign;
        let archives = fleet_archives_for(&deployment, &elems).expect("serialize");
        let total: u64 = archives.iter().map(|a| a.elems).sum();
        assert_eq!(total, elems.len() as u64, "foreign-labelled elems were dropped");
        assert!(archives
            .iter()
            .any(|a| a.dataset == DataSource::Ris && a.collector == foreign && a.elems == 1));
    }

    #[test]
    fn fleet_reingestion_reproduces_the_merged_stream() {
        let (deployment, output) = scenario();
        let archives = fleet_archives_for(&deployment, &output.elems).expect("serialize");
        let mut stream = fleet_of(&archives).start();
        let streamed = collect_source(&mut stream);
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(streamed.len(), output.elems.len());

        let expected =
            merge_streams(split_by_collector(&output.elems).into_values().collect::<Vec<_>>());
        assert_eq!(streamed.len(), expected.len());
        // MRT normalizes the NEXT_HOP (absent → peer address), so compare
        // everything the inference consumes.
        for (got, want) in streamed.iter().zip(&expected) {
            assert_eq!(got.time, want.time);
            assert_eq!(got.dataset, want.dataset);
            assert_eq!(got.collector, want.collector);
            assert_eq!(got.peer_asn, want.peer_asn);
            assert_eq!(got.peer_ip, want.peer_ip);
            assert_eq!(got.elem_type, want.elem_type);
            assert_eq!(got.prefix, want.prefix);
            assert_eq!(got.as_path, want.as_path);
            assert_eq!(got.communities, want.communities);
        }
    }
}
