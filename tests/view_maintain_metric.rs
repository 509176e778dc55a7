//! `linrec_service_view_maintain_ns` samples incremental maintenance only:
//! registering a view (a full materialization, timed by the
//! `service.register` span) adds no sample, and a batch that reaches the
//! view adds exactly one. The histogram is process-global, so this binary
//! holds this one test and nothing else touches the series meanwhile.

use linrec::prelude::*;

#[test]
fn registration_is_not_a_maintenance_sample() {
    let maintain = linrec::obs::metrics::registry().histogram("linrec_service_view_maintain_ns");
    let mut db = Database::new();
    db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
    let service = ViewService::new(db);
    let before = maintain.count();
    service
        .register_view(ViewDef {
            name: "tc".into(),
            rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
            seed: Symbol::new("e"),
        })
        .unwrap();
    assert_eq!(maintain.count(), before, "registration fed the histogram");

    let report = service
        .apply_batch([(Symbol::new("e"), vec![Value::Int(3), Value::Int(4)])])
        .unwrap();
    assert_eq!(report.views.len(), 1);
    assert_eq!(report.views[0].mode, "incremental");
    assert_eq!(maintain.count(), before + 1);
}
