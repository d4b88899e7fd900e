//! The two study runners agree on a reduced config, and the dataset
//! checks reject a dataset that differs.

use cellbench::checks::{check_same_dataset, dataset_digest};
use cellbench::{study, THREADS};
use cellscope_exec::Executor;
use cellscope_scenario::{figures, run_study_sharded, run_study_with, World};

#[test]
fn in_memory_and_sharded_runners_give_the_same_dataset() {
    let subscribers = 600;
    let mut config = study::config(5);
    config.population.num_subscribers = subscribers;
    let world = World::build(&config);

    let in_memory = run_study_with(&config, &world, &mut Executor::new(THREADS)).unwrap();
    let plan = study::plan(subscribers);
    assert!(plan.spill_masks && subscribers as usize > 4 * plan.subs_per_shard);
    let sharded = run_study_sharded(&config, &world, &mut Executor::new(THREADS), &plan).unwrap();
    assert_eq!(check_same_dataset(&in_memory, &sharded), Ok(()));

    let figs_a = figures::build_all(&in_memory, THREADS).unwrap();
    let figs_b = figures::build_all(&sharded, THREADS).unwrap();
    let digest = dataset_digest(&in_memory, &figs_a).unwrap();
    assert_eq!(digest, dataset_digest(&sharded, &figs_b).unwrap());

    // A dataset that differs in one number fails both checks.
    let mut tampered = sharded;
    tampered.national_voice_daily[3] += 1.0;
    assert!(check_same_dataset(&in_memory, &tampered).is_err());
    assert_ne!(digest, dataset_digest(&tampered, &figs_b).unwrap());
}
