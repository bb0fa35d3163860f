//! Differential shard-migration suite.
//!
//! The fleet invariant under test: *placement never changes results*. A
//! fleet that drains a shard to a checkpoint mid-run and resumes it on a
//! different worker must produce per-shard telemetry documents and a
//! merged rollup byte-identical to a fleet that never migrated. The
//! suite then proves it has teeth: a migration
//! that silently drops one tenant's in-flight demand op (the
//! `migrate_dropping_pending` tripwire) must produce a *different*
//! rollup.

use scrubd::{Fleet, FleetConfig};

fn config() -> FleetConfig {
    "[fleet]\n\
         banks = 8\n\
         lines-per-bank = 32\n\
         shards = 4\n\
         seed = 77\n\
         horizon-s = 900\n\
         cadence-s = 300\n\
         policy = combined@300\n\
         threads = 2\n\
         [tenants]\n\
         mix = alpha:rate=60,read=0.7;beta:rate=20,read=0.4,pattern=uniform\n"
        .parse()
        .expect("valid fleet config")
}

fn run_to_horizon(fleet: &mut Fleet) {
    while !fleet.done() {
        fleet.advance_round();
    }
}

#[test]
fn drain_migrate_resume_is_byte_identical() {
    let mut continuous = Fleet::new(config());
    let mut migrated = Fleet::new(config());

    // Advance one cadence round, then drain-and-resume *every* shard
    // onto a different worker mid-run.
    continuous.advance_round();
    migrated.advance_round();
    for shard in 0..4 {
        let m = migrated
            .migrate(shard, Some((shard + 1) % 2))
            .expect("shard exists");
        assert_eq!(m.shard, shard);
        assert!(!m.snapshot.is_empty(), "drained snapshot is sealed bytes");
    }
    assert_eq!(migrated.migrations(), 4);

    run_to_horizon(&mut continuous);
    run_to_horizon(&mut migrated);

    // Per-shard reports byte-identical...
    for shard in 0..4 {
        assert_eq!(
            continuous.shard_document(shard).unwrap().to_json(),
            migrated.shard_document(shard).unwrap().to_json(),
            "shard {shard} document diverged after migration"
        );
    }
    // ...and so is the merged rollup.
    assert_eq!(
        continuous.rollup().to_json(),
        migrated.rollup().to_json(),
        "fleet rollup diverged after migration"
    );
}

#[test]
fn repeated_migration_of_one_shard_is_still_byte_identical() {
    // A shard bounced between workers at every cadence boundary must
    // still finish byte-identical: resume-of-resume composes.
    let mut continuous = Fleet::new(config());
    let mut migrated = Fleet::new(config());
    while !continuous.done() {
        continuous.advance_round();
        migrated.advance_round();
        if !migrated.done() {
            migrated.migrate(1, None).expect("shard 1 exists");
        }
    }
    assert!(migrated.migrations() >= 2);
    assert_eq!(continuous.rollup().to_json(), migrated.rollup().to_json());
}

#[test]
fn tripwire_lossy_migration_changes_the_rollup() {
    // Same schedule as the clean differential, but the drain silently
    // drops the shard's in-flight demand op. If the final rollups do NOT
    // differ, byte-identity comparisons cannot catch a lossy migration
    // and every green result above is meaningless.
    let mut clean = Fleet::new(config());
    let mut lossy = Fleet::new(config());
    clean.advance_round();
    lossy.advance_round();
    clean.migrate(2, Some(0)).expect("shard 2 exists");
    lossy
        .migrate_dropping_pending(2, Some(0))
        .expect("shard 2 exists");
    run_to_horizon(&mut clean);
    run_to_horizon(&mut lossy);
    assert_ne!(
        clean.rollup().to_json(),
        lossy.rollup().to_json(),
        "a migration that drops a pending op must not survive the differential check"
    );
}

#[test]
fn migration_state_is_bookkeeping_only() {
    // Worker placement and migration counts live in status output, not
    // telemetry: no counter/value/meta key in a shard document or the
    // rollup may mention workers or migrations.
    let mut fleet = Fleet::new(config());
    fleet.advance_round();
    fleet.migrate(0, Some(1)).expect("shard 0 exists");
    let rollup = fleet.rollup();
    for key in rollup
        .counters
        .keys()
        .chain(rollup.values.keys())
        .chain(rollup.meta.keys())
    {
        assert!(
            !key.contains("worker") && !key.contains("migration"),
            "placement bookkeeping leaked into telemetry: {key}"
        );
    }
}
