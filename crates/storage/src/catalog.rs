//! A named collection of tables — the "database" DBWipes queries against.

use crate::error::StorageError;
use crate::table::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A catalog of tables keyed by lower-cased name.
///
/// DBWipes' demo databases contain a handful of tables (FEC contributions,
/// Intel sensor readings); a simple ordered map is sufficient and keeps
/// listing deterministic for tests and examples.
///
/// Tables are held behind [`Arc`], so cloning a catalog is cheap (one
/// reference-count bump per table) and many concurrent sessions can share
/// one set of immutable table snapshots. Mutation goes through
/// [`Catalog::table_mut`], which copies-on-write: the mutating catalog gets
/// a private copy of the table (with a fresh [`Table::version`]) while every
/// other clone keeps reading the original snapshot untouched.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table; fails if a table with the same (case-insensitive)
    /// name already exists.
    pub fn register(&mut self, table: Table) -> Result<(), StorageError> {
        let key = table.name().to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        self.tables.insert(key, Arc::new(table));
        Ok(())
    }

    /// Registers a table, replacing any existing table of the same name.
    pub fn register_or_replace(&mut self, table: Table) {
        self.tables.insert(table.name().to_ascii_lowercase(), Arc::new(table));
    }

    /// Looks up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|arc| arc.as_ref())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Looks up a table and returns a shared handle to its current
    /// snapshot. The handle stays valid (and immutable) even if the catalog
    /// later mutates or replaces the table — which is what lets the server's
    /// cache registry keep aggregate caches alive across brushes without
    /// holding any catalog lock.
    pub fn table_arc(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Installs an already-shared table snapshot, replacing any existing
    /// entry of the same (case-insensitive) name without cloning the data.
    ///
    /// This is the streaming-append fan-out path: after the base catalog
    /// grows a table, every open session adopts the new snapshot by
    /// installing the same [`Arc`], so all readers converge on one shared
    /// copy instead of each session copy-on-writing its own.
    pub fn install_snapshot(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_ascii_lowercase(), table);
    }

    /// Looks up a table mutably, copying-on-write when the snapshot is
    /// shared with other catalog clones or outstanding [`Catalog::table_arc`]
    /// handles. The copy shares every sealed chunk of every column with the
    /// snapshot it was made from (see [`crate::column`]): it costs a
    /// pointer per chunk and each column's tail, not the table, so an
    /// append through it is O(appended) whoever else is reading. A table
    /// only grows, so an append is all the copy can be mutated by.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// True when the catalog contains the named table.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name().to_string()).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn table(name: &str) -> Table {
        Table::new(name, Schema::of(&[("x", DataType::Int)])).unwrap()
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(table("Sensors")).unwrap();
        assert!(c.contains("sensors"));
        assert!(c.contains("SENSORS"));
        assert_eq!(c.table("sensors").unwrap().name(), "Sensors");
        assert_eq!(c.len(), 1);
        assert!(c.table("donations").is_err());
    }

    #[test]
    fn duplicate_registration_rejected_but_replace_allowed() {
        let mut c = Catalog::new();
        c.register(table("t")).unwrap();
        assert!(matches!(c.register(table("T")), Err(StorageError::TableExists(_))));
        c.register_or_replace(table("T"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("t").unwrap().name(), "T");
    }

    #[test]
    fn mutation_through_table_mut() {
        let mut c = Catalog::new();
        c.register(table("t")).unwrap();
        c.table_mut("t").unwrap().push_row(vec![crate::value::Value::Int(1)]).unwrap();
        assert_eq!(c.table("t").unwrap().num_rows(), 1);
        assert!(c.table_mut("missing").is_err());
    }

    #[test]
    fn clones_share_snapshots_and_copy_on_write() {
        let mut base = Catalog::new();
        base.register(table("t")).unwrap();
        base.table_mut("t").unwrap().push_row(vec![crate::value::Value::Int(1)]).unwrap();

        let mut session = base.clone();
        let snapshot = base.table_arc("t").unwrap();
        assert!(Arc::ptr_eq(&snapshot, &session.table_arc("t").unwrap()));
        assert_eq!(snapshot.id(), session.table("t").unwrap().id());

        // The session appends to its view: it gets a private copy...
        session.table_mut("t").unwrap().push_row(vec![crate::value::Value::Int(2)]).unwrap();
        assert_eq!(session.table("t").unwrap().num_rows(), 2);
        // ...while the base catalog and the outstanding snapshot are untouched.
        assert_eq!(base.table("t").unwrap().num_rows(), 1);
        assert_eq!(snapshot.num_rows(), 1);
        // Same identity, different data version.
        assert_eq!(session.table("t").unwrap().id(), snapshot.id());
        assert_ne!(session.table("t").unwrap().version(), snapshot.version());
    }

    #[test]
    fn install_snapshot_shares_the_arc() {
        let mut base = Catalog::new();
        base.register(table("t")).unwrap();
        let mut session = base.clone();

        base.table_mut("t").unwrap().push_row(vec![crate::value::Value::Int(7)]).unwrap();
        let grown = base.table_arc("t").unwrap();
        session.install_snapshot(Arc::clone(&grown));

        assert!(Arc::ptr_eq(&grown, &session.table_arc("t").unwrap()));
        assert_eq!(session.table("t").unwrap().num_rows(), 1);
    }

    #[test]
    fn table_names_are_listed_sorted() {
        let mut c = Catalog::new();
        c.register(table("b")).unwrap();
        c.register(table("a")).unwrap();
        assert_eq!(c.table_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(c.len(), 2);
    }
}
