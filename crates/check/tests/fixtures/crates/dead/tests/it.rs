//! Fixture: rule `dead-pub`. Test code names items without keeping them live.

#[test]
fn names_items() {
    dead::unreferenced();
    dead::waived_helper();
    assert_eq!(dead::ONLY_IN_TESTS_DIR, 1);
    assert_eq!(dead::Agent.greedy_action(), 0);
}
