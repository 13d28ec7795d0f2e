//! The metadata service managed by the Pixels-Turbo coordinator.
//!
//! The catalog maps `database.table` names to table definitions, tracks the
//! object-store files backing each table, and aggregates file statistics for
//! the planner. It is the component the paper's Coordinator consults to
//! "fetch database schema" and that Pixels-Rover's schema browser renders.

use crate::statistics::TableStats;
use crate::table::{ForeignKey, TableDef};
use parking_lot::RwLock;
use pixels_common::{Error, IdGenerator, Result, SchemaRef, TableId};
use pixels_storage::Footer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything needed to register a new table.
#[derive(Debug, Clone)]
pub struct CreateTable {
    pub database: String,
    pub name: String,
    pub schema: SchemaRef,
    pub primary_key: Option<String>,
    pub foreign_keys: Vec<ForeignKey>,
    pub comment: Option<String>,
}

/// Thread-safe metadata store.
#[derive(Default)]
pub struct Catalog {
    inner: RwLock<Inner>,
    ids: IdGenerator,
}

#[derive(Default)]
struct Inner {
    /// database -> table name -> definition (both lowercased).
    databases: BTreeMap<String, BTreeMap<String, TableDef>>,
}

/// Shared catalog handle.
pub type CatalogRef = Arc<Catalog>;

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    pub fn shared() -> CatalogRef {
        Arc::new(Catalog::new())
    }

    /// Create a database (no-op if it already exists).
    pub fn create_database(&self, name: &str) {
        self.inner
            .write()
            .databases
            .entry(name.to_ascii_lowercase())
            .or_default();
    }

    pub fn database_names(&self) -> Vec<String> {
        self.inner.read().databases.keys().cloned().collect()
    }

    pub fn has_database(&self, name: &str) -> bool {
        self.inner
            .read()
            .databases
            .contains_key(&name.to_ascii_lowercase())
    }

    /// Register a table. The database is created implicitly.
    pub fn create_table(&self, spec: CreateTable) -> Result<TableId> {
        let db_key = spec.database.to_ascii_lowercase();
        let table_key = spec.name.to_ascii_lowercase();
        // Validate constraint columns exist in the schema.
        if let Some(pk) = &spec.primary_key {
            spec.schema.index_of_or_err(pk)?;
        }
        for fk in &spec.foreign_keys {
            spec.schema.index_of_or_err(&fk.column)?;
        }
        let mut inner = self.inner.write();
        let db = inner.databases.entry(db_key).or_default();
        if db.contains_key(&table_key) {
            return Err(Error::Catalog(format!(
                "table already exists: {}.{}",
                spec.database, spec.name
            )));
        }
        let id = TableId(self.ids.next());
        let stats = TableStats::with_columns(spec.schema.len());
        db.insert(
            table_key,
            TableDef {
                id,
                database: spec.database,
                name: spec.name,
                schema: spec.schema,
                paths: Vec::new(),
                stats,
                primary_key: spec.primary_key,
                foreign_keys: spec.foreign_keys,
                comment: spec.comment,
            },
        );
        Ok(id)
    }

    /// Attach a data file to a table and fold the file's footer statistics
    /// into the table statistics.
    pub fn register_data_file(
        &self,
        database: &str,
        table: &str,
        path: &str,
        footer: &Footer,
        file_bytes: u64,
    ) -> Result<()> {
        let mut inner = self.inner.write();
        let t = inner.get_table_mut(database, table)?;
        if footer.schema.len() != t.schema.len() {
            return Err(Error::Catalog(format!(
                "file {path} has {} columns but table {}.{} has {}",
                footer.schema.len(),
                database,
                table,
                t.schema.len()
            )));
        }
        t.paths.push(path.to_string());
        t.stats.row_count += footer.num_rows();
        t.stats.total_bytes += file_bytes;
        for (i, summary) in t.stats.columns.iter_mut().enumerate() {
            summary.merge_chunk(&footer.column_stats(i));
        }
        Ok(())
    }

    /// Record a distinct-value estimate for a column (generators know their
    /// true NDVs; a production system would run ANALYZE).
    pub fn set_distinct_count(
        &self,
        database: &str,
        table: &str,
        column: &str,
        ndv: u64,
    ) -> Result<()> {
        let mut inner = self.inner.write();
        let t = inner.get_table_mut(database, table)?;
        let idx = t.schema.index_of_or_err(column)?;
        t.stats.columns[idx].distinct_count = Some(ndv);
        Ok(())
    }

    /// Look up a table; names are case-insensitive.
    pub fn get_table(&self, database: &str, table: &str) -> Result<TableDef> {
        let inner = self.inner.read();
        inner.get_table(database, table).cloned()
    }

    /// All tables of a database, sorted by name.
    pub fn list_tables(&self, database: &str) -> Result<Vec<TableDef>> {
        let inner = self.inner.read();
        let db = inner
            .databases
            .get(&database.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("database not found: {database}")))?;
        Ok(db.values().cloned().collect())
    }

    pub fn drop_table(&self, database: &str, table: &str) -> Result<TableDef> {
        let mut inner = self.inner.write();
        let db = inner
            .databases
            .get_mut(&database.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("database not found: {database}")))?;
        db.remove(&table.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("table not found: {database}.{table}")))
    }
}

impl Inner {
    fn get_table(&self, database: &str, table: &str) -> Result<&TableDef> {
        self.databases
            .get(&database.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("database not found: {database}")))?
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("table not found: {database}.{table}")))
    }

    fn get_table_mut(&mut self, database: &str, table: &str) -> Result<&mut TableDef> {
        self.databases
            .get_mut(&database.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("database not found: {database}")))?
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("table not found: {database}.{table}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_common::RecordBatch;
    use pixels_common::{DataType, Field, Schema, Value};
    use pixels_storage::{write_table, InMemoryObjectStore, PixelsReader};

    fn orders_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::required("o_orderkey", DataType::Int64),
            Field::required("o_custkey", DataType::Int64),
        ]))
    }

    fn create_orders(cat: &Catalog) -> TableId {
        cat.create_table(CreateTable {
            database: "tpch".into(),
            name: "orders".into(),
            schema: orders_schema(),
            primary_key: Some("o_orderkey".into()),
            foreign_keys: vec![ForeignKey {
                column: "o_custkey".into(),
                ref_table: "customer".into(),
                ref_column: "c_custkey".into(),
            }],
            comment: Some("customer orders".into()),
        })
        .unwrap()
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let cat = Catalog::new();
        create_orders(&cat);
        let t = cat.get_table("TPCH", "Orders").unwrap();
        assert_eq!(t.name, "orders");
        assert_eq!(t.qualified_name(), "tpch.orders");
        assert!(cat.has_database("tpch"));
        assert_eq!(cat.database_names(), vec!["tpch"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let cat = Catalog::new();
        create_orders(&cat);
        let err = cat
            .create_table(CreateTable {
                database: "tpch".into(),
                name: "ORDERS".into(),
                schema: orders_schema(),
                primary_key: None,
                foreign_keys: vec![],
                comment: None,
            })
            .unwrap_err();
        assert_eq!(err.kind(), "catalog");
    }

    #[test]
    fn constraint_columns_validated() {
        let cat = Catalog::new();
        let err = cat
            .create_table(CreateTable {
                database: "d".into(),
                name: "t".into(),
                schema: orders_schema(),
                primary_key: Some("missing".into()),
                foreign_keys: vec![],
                comment: None,
            })
            .unwrap_err();
        assert_eq!(err.kind(), "not_found");
    }

    #[test]
    fn missing_objects_are_not_found() {
        let cat = Catalog::new();
        assert!(cat.get_table("nodb", "t").is_err());
        cat.create_database("d");
        assert!(cat.get_table("d", "nope").is_err());
        assert!(cat.list_tables("nodb").is_err());
        assert!(cat.drop_table("d", "nope").is_err());
    }

    #[test]
    fn register_file_updates_stats() {
        let cat = Catalog::new();
        create_orders(&cat);
        let store = InMemoryObjectStore::new();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int64(i), Value::Int64(i % 10)])
            .collect();
        let batch = RecordBatch::from_rows(orders_schema(), &rows).unwrap();
        let size = write_table(&store, "tpch/orders/0.pxl", orders_schema(), &[batch]).unwrap();
        let reader = PixelsReader::open(&store, "tpch/orders/0.pxl").unwrap();
        cat.register_data_file("tpch", "orders", "tpch/orders/0.pxl", reader.footer(), size)
            .unwrap();
        cat.set_distinct_count("tpch", "orders", "o_custkey", 10)
            .unwrap();

        let t = cat.get_table("tpch", "orders").unwrap();
        assert_eq!(t.paths, vec!["tpch/orders/0.pxl"]);
        assert_eq!(t.stats.row_count, 100);
        assert_eq!(t.stats.total_bytes, size);
        assert_eq!(t.stats.columns[0].min, Some(Value::Int64(0)));
        assert_eq!(t.stats.columns[0].max, Some(Value::Int64(99)));
        assert_eq!(t.stats.columns[1].distinct_count, Some(10));
        assert!(t.stats.bytes_per_row() > 0.0);
    }

    #[test]
    fn register_file_schema_width_checked() {
        let cat = Catalog::new();
        create_orders(&cat);
        let store = InMemoryObjectStore::new();
        let narrow = Arc::new(Schema::new(vec![Field::required("x", DataType::Int32)]));
        let batch = RecordBatch::from_rows(narrow.clone(), &[vec![Value::Int32(1)]]).unwrap();
        write_table(&store, "f.pxl", narrow, &[batch]).unwrap();
        let reader = PixelsReader::open(&store, "f.pxl").unwrap();
        assert!(cat
            .register_data_file("tpch", "orders", "f.pxl", reader.footer(), 10)
            .is_err());
    }

    #[test]
    fn drop_table_removes() {
        let cat = Catalog::new();
        create_orders(&cat);
        cat.drop_table("tpch", "orders").unwrap();
        assert!(cat.get_table("tpch", "orders").is_err());
        assert!(cat.list_tables("tpch").unwrap().is_empty());
    }

    #[test]
    fn table_ids_are_unique() {
        let cat = Catalog::new();
        let a = create_orders(&cat);
        let b = cat
            .create_table(CreateTable {
                database: "tpch".into(),
                name: "customer".into(),
                schema: orders_schema(),
                primary_key: None,
                foreign_keys: vec![],
                comment: None,
            })
            .unwrap();
        assert_ne!(a, b);
    }
}
