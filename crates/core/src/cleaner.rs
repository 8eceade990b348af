//! Clean as you query: applying ranked predicates to the running query.
//!
//! "Finally, the audience can clean the database by clicking on predicates
//! to remove them from future queries" (paper §1); "the user can click on a
//! hypothesis to see the result of the original query on a version of the
//! database that does not contain tuples satisfying the hypothesis. The
//! visualization and query automatically update" (§2.2.1).
//!
//! Cleaning is a query rewrite ([`CleaningSession`]): each applied
//! predicate adds `AND NOT (predicate)` to the WHERE clause. The data is
//! never touched — tables only grow — so "the version of the database that
//! does not contain" the tuples is the rewritten query's view of it, and
//! un-applying a predicate is dropping its conjunct.

use crate::error::CoreError;
use dbwipes_engine::{
    validate, EngineError, GroupedAggregateCache, QueryResult, SelectStatement, MAX_EXPR_DEPTH,
};
use dbwipes_storage::{ConjunctivePredicate, Expr};

/// An interactive cleaning session over one base query.
#[derive(Debug, Clone)]
pub struct CleaningSession {
    base: SelectStatement,
    applied: Vec<ConjunctivePredicate>,
}

impl CleaningSession {
    /// Starts a session from the user's original query.
    pub fn new(base: SelectStatement) -> Self {
        CleaningSession { base, applied: Vec::new() }
    }

    /// The original statement without any cleaning predicates.
    pub fn base_statement(&self) -> &SelectStatement {
        &self.base
    }

    /// The predicates applied so far, in application order.
    pub fn applied(&self) -> &[ConjunctivePredicate] {
        &self.applied
    }

    /// The current statement: the base query with `AND NOT (p)` for every
    /// applied predicate — exactly what the dashboard's query form shows.
    pub fn current_statement(&self) -> SelectStatement {
        let mut stmt = self.base.clone();
        for p in &self.applied {
            stmt = stmt.with_additional_filter(p.to_exclusion_expr());
        }
        stmt
    }

    /// The current statement rendered as SQL.
    pub fn current_sql(&self) -> String {
        self.current_statement().to_sql()
    }

    /// Applies (clicks) a predicate. Applying the same predicate twice is a
    /// no-op. A predicate whose `AND NOT (...)` would nest the WHERE clause
    /// deeper than [`MAX_EXPR_DEPTH`] is refused and nothing changes.
    pub fn apply(&mut self, predicate: ConjunctivePredicate) -> Result<(), CoreError> {
        if predicate.is_trivial() || self.applied.contains(&predicate) {
            return Ok(());
        }
        let rewritten =
            self.current_statement().with_additional_filter(predicate.to_exclusion_expr());
        if rewritten.where_clause.as_ref().map_or(0, Expr::depth) > MAX_EXPR_DEPTH {
            return Err(CoreError::invalid(format!(
                "clicking {predicate} would nest the query deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.applied.push(predicate);
        Ok(())
    }

    /// Un-applies the most recently applied predicate.
    pub fn undo(&mut self) -> Option<ConjunctivePredicate> {
        self.applied.pop()
    }

    /// What executing the current (cleaned) statement answers over
    /// `cache`'s table — values bit for bit, row order, lineage, and the
    /// error of a predicate that does not fit the schema — without
    /// executing: the rows the applied predicates leave (`NOT (p₁) AND
    /// NOT (p₂) …` TRUE, so a row on which a predicate is NULL goes, as the
    /// rewritten WHERE drops it) are read from the snapshot's condition
    /// bitmaps, and only the groups that lose a row are aggregated again
    /// ([`GroupedAggregateCache::cleaned_result`]). `cache` must retain
    /// the base statement.
    pub fn execute_with_cache(
        &self,
        cache: &GroupedAggregateCache,
    ) -> Result<QueryResult, CoreError> {
        if cache.statement() != &self.base {
            return Err(CoreError::invalid(format!(
                "cache was built for `{}` but the query being cleaned is `{}`",
                cache.statement().to_sql(),
                self.base.to_sql()
            )));
        }
        let table = cache.table();
        let shown = self.current_statement();
        validate(table, &shown)?;
        let exclusions = self.applied.iter().map(|p| p.to_exclusion_expr()).collect();
        // A scan's error reaches the caller through the engine, as in `execute`.
        let survivors = Expr::conjunction(exclusions)
            .map(|keep| keep.filter_set(table))
            .transpose()
            .map_err(EngineError::from)?;
        Ok(cache.cleaned_result(&shown, survivors.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_engine::{execute, parse_select, ExecOptions};
    use dbwipes_storage::{Condition, DataType, Schema, Table, Value};

    fn table() -> Table {
        let mut t = Table::new(
            "readings",
            Schema::of(&[
                ("window", DataType::Int),
                ("sensorid", DataType::Int),
                ("temp", DataType::Float),
            ]),
        )
        .unwrap();
        for i in 0..40i64 {
            let sensor = i % 4;
            let temp = if sensor == 3 { 120.0 } else { 20.0 };
            t.push_row(vec![Value::Int(i % 2), Value::Int(sensor), Value::Float(temp)]).unwrap();
        }
        t
    }

    fn base() -> SelectStatement {
        parse_select("SELECT window, avg(temp) FROM readings GROUP BY window").unwrap()
    }

    /// The session's current statement answered from `cache`, after
    /// checking it equals what the engine answers for that statement.
    fn shown(session: &CleaningSession, cache: &GroupedAggregateCache) -> QueryResult {
        let got = session.execute_with_cache(cache).unwrap();
        let want =
            execute(cache.table(), &session.current_statement(), ExecOptions::default()).unwrap();
        assert_eq!(got.statement, want.statement);
        assert_eq!(format!("{:?}", got.rows), format!("{:?}", want.rows));
        assert_eq!(got.group_keys, want.group_keys);
        (0..want.len()).for_each(|g| assert_eq!(got.inputs_of(g), want.inputs_of(g)));
        got
    }

    #[test]
    fn applying_a_predicate_rewrites_the_query_and_fixes_the_result() {
        let cache = GroupedAggregateCache::build(&table(), &base()).unwrap();
        let mut session = CleaningSession::new(base());
        let before = shown(&session, &cache);
        // Window 1 (output row 1) contains sensor 3's 120-degree readings.
        assert!(before.value_f64(1, "avg_temp").unwrap().unwrap() > 40.0);
        assert_eq!(session.applied().len(), 0);

        session.apply(ConjunctivePredicate::new(vec![Condition::equals("sensorid", 3)])).unwrap();
        let sql = session.current_sql();
        assert!(sql.contains("NOT (sensorid = 3)"), "{sql}");
        let after = shown(&session, &cache);
        assert_eq!(after.value_f64(1, "avg_temp").unwrap().unwrap(), 20.0);
        // Base statement is untouched.
        assert_eq!(session.base_statement().to_sql(), base().to_sql());
    }

    #[test]
    fn apply_is_idempotent_and_ignores_trivial_predicates() {
        let mut session = CleaningSession::new(base());
        let p = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 3)]);
        session.apply(p.clone()).unwrap();
        session.apply(p.clone()).unwrap();
        session.apply(ConjunctivePredicate::always_true()).unwrap();
        assert_eq!(session.applied().len(), 1);
    }

    #[test]
    fn undo_unapplies_in_reverse_order() {
        let cache = GroupedAggregateCache::build(&table(), &base()).unwrap();
        let mut session = CleaningSession::new(base());
        let p1 = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 3)]);
        let p2 = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 2)]);
        session.apply(p1.clone()).unwrap();
        session.apply(p2.clone()).unwrap();
        assert_eq!(session.applied().len(), 2);
        assert_eq!(session.undo(), Some(p2));
        assert_eq!(session.applied().len(), 1);
        let r = shown(&session, &cache);
        assert_eq!(r.value_f64(1, "avg_temp").unwrap().unwrap(), 20.0);
        assert_eq!(session.undo(), Some(p1));
        assert!(session.applied().is_empty());
        assert!(session.undo().is_none());
        let r = shown(&session, &cache);
        assert!(r.value_f64(1, "avg_temp").unwrap().unwrap() > 40.0);
    }

    #[test]
    fn a_click_past_the_depth_cap_is_refused_and_changes_nothing() {
        // `sensorid <> 3` is two levels and each NOT one more: at the cap.
        let deep = format!("{}sensorid <> 3", "NOT ".repeat(MAX_EXPR_DEPTH - 2));
        let sql = format!("SELECT window, avg(temp) FROM readings WHERE {deep} GROUP BY window");
        let mut session = CleaningSession::new(parse_select(&sql).unwrap());
        let p = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 3)]);
        let error = session.apply(p).unwrap_err().to_string();
        assert!(error.ends_with(&format!("deeper than {MAX_EXPR_DEPTH} levels")), "{error}");
        assert!(session.applied().is_empty());
    }
}
