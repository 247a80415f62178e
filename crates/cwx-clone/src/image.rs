//! The Image Manager (paper §4).
//!
//! "Administrators are able to load the OS and applications to build the
//! required functionality into an image. ... For convenience we offer
//! prebuilt images for cloning, harddisk as well as NFS boot.
//! Furthermore, customized images can be built with little effort."

use std::collections::BTreeMap;

use cwx_util::hash::{fnv1a_fold, FNV_OFFSET};

/// Identifies an image in the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageId(pub u32);

/// How the image is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageKind {
    /// Cloned onto the node's local hard disk.
    HardDisk,
    /// Served as an NFS root (diskless nodes).
    NfsRoot,
}

/// A system image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Id within the manager.
    pub id: ImageId,
    /// Human name, e.g. `"rh73-compute"`.
    pub name: String,
    /// Deployment flavour.
    pub kind: ImageKind,
    /// Image payload size in bytes.
    pub size_bytes: u64,
    /// Monotonic version (bumped by updates).
    pub version: u32,
    /// Content checksum (FNV-1a over the image description; stands in
    /// for a hash of the payload, which the simulation does not carry).
    pub checksum: u64,
    /// Packages layered into the image.
    pub packages: Vec<String>,
}

/// FNV-1a over the image description: the stand-in checksum.
fn checksum_of(name: &str, kind: ImageKind, size: u64, version: u32, packages: &[String]) -> u64 {
    let kind_tag: &[u8] = match kind {
        ImageKind::HardDisk => b"hd",
        ImageKind::NfsRoot => b"nfs",
    };
    let parts = [
        name.as_bytes(),
        kind_tag,
        &size.to_le_bytes(),
        &version.to_le_bytes(),
    ];
    let h = parts.into_iter().fold(FNV_OFFSET, fnv1a_fold);
    packages.iter().fold(h, |h, p| fnv1a_fold(h, p.as_bytes()))
}

/// Registry of images on the ClusterWorX management host.
#[derive(Debug, Default)]
pub struct ImageManager {
    images: BTreeMap<ImageId, Image>,
    next_id: u32,
}

impl ImageManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// A manager pre-loaded with the prebuilt images the paper mentions.
    pub fn with_prebuilt() -> Self {
        let mut m = Self::new();
        m.build(
            "rh73-compute",
            ImageKind::HardDisk,
            650 << 20,
            &["kernel-2.4.18", "pbs-mom"],
        );
        m.build(
            "rh73-diskless",
            ImageKind::NfsRoot,
            350 << 20,
            &["kernel-2.4.18"],
        );
        m.build(
            "rh73-io-node",
            ImageKind::HardDisk,
            900 << 20,
            &["kernel-2.4.18", "nfs-utils"],
        );
        m
    }

    /// Build a new image from a package list.
    pub fn build(
        &mut self,
        name: &str,
        kind: ImageKind,
        size_bytes: u64,
        packages: &[&str],
    ) -> ImageId {
        let id = ImageId(self.next_id);
        self.next_id += 1;
        let packages: Vec<String> = packages.iter().map(|s| s.to_string()).collect();
        let checksum = checksum_of(name, kind, size_bytes, 1, &packages);
        self.images.insert(
            id,
            Image {
                id,
                name: name.to_string(),
                kind,
                size_bytes,
                version: 1,
                checksum,
                packages,
            },
        );
        id
    }

    /// Look up an image.
    pub fn get(&self, id: ImageId) -> Option<&Image> {
        self.images.get(&id)
    }

    /// Find by name.
    pub fn find(&self, name: &str) -> Option<&Image> {
        self.images.values().find(|i| i.name == name)
    }

    /// All images.
    pub fn list(&self) -> impl Iterator<Item = &Image> {
        self.images.values()
    }

    /// Update an image in place: add packages and/or grow it (a kernel
    /// update, say). Bumps the version and recomputes the checksum —
    /// "improvements to cloning add the ability to more easily update
    /// the kernel on all nodes ... and update files or packages".
    pub fn update(
        &mut self,
        id: ImageId,
        added_packages: &[&str],
        added_bytes: u64,
    ) -> Option<u32> {
        let img = self.images.get_mut(&id)?;
        img.packages
            .extend(added_packages.iter().map(|s| s.to_string()));
        img.size_bytes += added_bytes;
        img.version += 1;
        img.checksum = checksum_of(
            &img.name,
            img.kind,
            img.size_bytes,
            img.version,
            &img.packages,
        );
        Some(img.version)
    }

    /// Delete an image.
    pub fn remove(&mut self, id: ImageId) -> bool {
        self.images.remove(&id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prebuilt_images_exist() {
        let m = ImageManager::with_prebuilt();
        assert_eq!(m.list().count(), 3);
        let hd = m.find("rh73-compute").unwrap();
        assert_eq!(hd.kind, ImageKind::HardDisk);
        assert_eq!(hd.size_bytes, 650 << 20);
        let nfs = m.find("rh73-diskless").unwrap();
        assert_eq!(nfs.kind, ImageKind::NfsRoot);
    }

    #[test]
    fn build_assigns_unique_ids() {
        let mut m = ImageManager::new();
        let a = m.build("a", ImageKind::HardDisk, 100, &[]);
        let b = m.build("b", ImageKind::HardDisk, 100, &[]);
        assert_ne!(a, b);
        assert_eq!(m.get(a).unwrap().name, "a");
    }

    #[test]
    fn checksum_is_pinned() {
        // the FNV-1a of the image description, byte for byte
        let mut m = ImageManager::new();
        let id = m.build(
            "rh73-compute",
            ImageKind::HardDisk,
            650 << 20,
            &["kernel-2.4.18", "mpich"],
        );
        assert_eq!(m.get(id).unwrap().checksum, 0x0264_edaf_3724_3ef2);
    }

    #[test]
    fn checksums_differ_by_content() {
        let mut m = ImageManager::new();
        let a = m.build("a", ImageKind::HardDisk, 100, &["pkg1"]);
        let b = m.build("a", ImageKind::HardDisk, 100, &["pkg2"]);
        assert_ne!(m.get(a).unwrap().checksum, m.get(b).unwrap().checksum);
        let c = m.build("a", ImageKind::NfsRoot, 100, &["pkg1"]);
        assert_ne!(m.get(a).unwrap().checksum, m.get(c).unwrap().checksum);
    }

    #[test]
    fn update_bumps_version_and_checksum() {
        let mut m = ImageManager::new();
        let id = m.build("img", ImageKind::HardDisk, 1000, &["kernel-2.4.18"]);
        let before = m.get(id).unwrap().clone();
        let v = m.update(id, &["kernel-2.4.20"], 5_000_000).unwrap();
        let after = m.get(id).unwrap();
        assert_eq!(v, 2);
        assert_eq!(after.version, 2);
        assert_ne!(after.checksum, before.checksum);
        assert_eq!(after.size_bytes, 1000 + 5_000_000);
        assert!(after.packages.contains(&"kernel-2.4.20".to_string()));
    }

    #[test]
    fn update_missing_image_is_none() {
        let mut m = ImageManager::new();
        assert!(m.update(ImageId(42), &[], 0).is_none());
    }

    #[test]
    fn remove_works_once() {
        let mut m = ImageManager::new();
        let id = m.build("x", ImageKind::HardDisk, 1, &[]);
        assert!(m.remove(id));
        assert!(!m.remove(id));
        assert!(m.get(id).is_none());
    }
}
