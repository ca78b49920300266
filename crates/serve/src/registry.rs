//! The site registry: one shard's name → site map.
//!
//! [`crate::shard::ShardSet`] does the sharding: it owns one registry per
//! worker shard and routes each site id to one of them. Sites are
//! independent — separate snapshots, separate mutable state — so a registry
//! itself is just a name → `Arc<Site>` map behind an `RwLock`
//! that is only held for lookups and membership changes. Request handling
//! clones the `Arc` out and drops the lock before doing any work.
//!
//! Background maintenance is delegated to one shared
//! [`MaintenanceScheduler`]: every automatically-ticked site is registered
//! with it, and its single thread (rather than a thread per site) runs the
//! ticks.

use crate::maintenance::MaintenanceScheduler;
use crate::site::Site;
use crate::{Result, ServeError};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

/// Name → site map plus the shared maintenance scheduler.
#[derive(Debug, Default)]
pub struct Registry {
    sites: RwLock<HashMap<String, Arc<Site>>>,
    scheduler: MaintenanceScheduler,
}

impl Registry {
    /// Creates an empty registry. Its maintenance scheduler thread only
    /// starts when the first automatically-ticked site is added.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `site` and schedules its maintenance (unless the site's
    /// policy requests manual ticks).
    pub fn add(&self, site: Site) -> Result<Arc<Site>> {
        let site = Arc::new(site);
        {
            let mut map = self.sites.write().unwrap_or_else(|p| p.into_inner());
            if map.contains_key(site.name()) {
                return Err(ServeError::SiteExists(site.name().to_string()));
            }
            map.insert(site.name().to_string(), Arc::clone(&site));
        }
        if !site.policy().manual_tick {
            self.scheduler.schedule(Arc::clone(&site));
        }
        Ok(site)
    }

    /// Looks a site up by name.
    pub fn get(&self, name: &str) -> Result<Arc<Site>> {
        self.sites
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownSite(name.to_string()))
    }

    /// Unregisters a site and waits until no maintenance tick for it can run
    /// anymore.
    pub fn remove(&self, name: &str) -> Result<Arc<Site>> {
        let site = {
            let mut map = self.sites.write().unwrap_or_else(|p| p.into_inner());
            map.remove(name).ok_or_else(|| ServeError::UnknownSite(name.to_string()))?
        };
        site.stop_flag().store(true, Ordering::Relaxed);
        self.scheduler.unschedule(name);
        Ok(site)
    }

    /// All registered sites, name-sorted (stable output for `list-sites`).
    pub fn list(&self) -> Vec<Arc<Site>> {
        let mut sites: Vec<Arc<Site>> =
            self.sites.read().unwrap_or_else(|p| p.into_inner()).values().cloned().collect();
        sites.sort_by(|a, b| a.name().cmp(b.name()));
        sites
    }

    /// Raises every site's stop flag and stops the maintenance scheduler
    /// (server shutdown). Sites stay registered and readable.
    pub fn stop_maintenance(&self) {
        for site in self.list() {
            site.stop_flag().store(true, Ordering::Relaxed);
        }
        self.scheduler.stop_and_join();
    }
}
