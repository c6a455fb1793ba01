// Seeded violations for the wire-float-exactness rule. Linted under a
// synthetic proto.rs path so the rule is in scope.

pub fn raw_float_on_wire(score: f64) -> Json {
    Json::Num(score)
}

pub fn through_the_one_encoder_is_fine(score: f64) -> Json {
    human_f64(score)
}

fn human_f64(v: f64) -> Json {
    // lint:allow(wire-float-exactness: the one sanctioned float encoder)
    Json::Num(v)
}
