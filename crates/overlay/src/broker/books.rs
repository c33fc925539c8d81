//! The registry's gossip books: the last roster each fellow broker sent.
//!
//! A sender republishes an unchanged peer as the same view allocation
//! every round, so most of a received roster is rows the receiver already
//! holds. A [`Book`] keeps the sender's last roster (the shared slice
//! itself, so a freed address can never compare equal), when it was sent,
//! and one **mark** per row: "this row's peer is `Remote` here with
//! exactly this allocation, booked to this book, and no local peer
//! occupies its host". The next roster is merge-walked against the book in
//! node order ([`PeerRegistry::absorb`]); a row that is
//! the same pointer as a marked book row is renewed by that comparison
//! alone, without reading the view or probing a table.
//!
//! A booked view's `as_of` is its book's `sent_at` ([`Books::as_of`]), so
//! renewing it is moving one timestamp per round. Every local change that
//! would alter what the fast path sees **revokes** the view's mark
//! ([`Books::revoke`], [`Books::unmark`]): the view is admitted, replaced,
//! purged, evicted as stale, or a local peer takes its host. The next
//! roster then sends that row through `learn_remote`, the one write path,
//! which books it again if it is stored.

use std::sync::Arc;

use netsim::idmap::IdMap;
use netsim::node::NodeId;
use netsim::time::SimTime;

use crate::footprint::{map_estimate, slots_estimate, ARC_HEADER_BYTES};
use crate::selector::CandidateView;

use super::registry::{Membership, PeerRegistry, RemoteView};

/// [`RemoteView::book`] of a view no book vouches for: its own `as_of`
/// is the one that counts.
pub(super) const UNBOOKED: u32 = u32::MAX;

/// The last roster one fellow broker sent this one.
pub(super) struct Book {
    /// The roster as received, one row per sender-local peer in ascending
    /// node order.
    pub(super) roster: Arc<[Arc<CandidateView>]>,
    /// When the sender took it: the `as_of` of every marked row's view.
    pub(super) sent_at: SimTime,
    /// Per row: whether the row's view is held here, booked to this book.
    marks: Vec<bool>,
    /// How many brokers the roster went to, which fixes this holder's
    /// share of the slice in the footprint.
    recipients: u32,
}

/// One [`Book`] per fellow broker heard from.
#[derive(Default)]
pub(super) struct Books {
    by_sender: IdMap<NodeId, u32>,
    books: Vec<Book>,
}

impl Books {
    /// The book of `sender`, opened empty on first contact.
    pub(super) fn open(&mut self, sender: NodeId) -> u32 {
        let books = &mut self.books;
        *self.by_sender.entry(sender).or_insert_with(|| {
            books.push(Book {
                roster: Arc::from([]),
                sent_at: SimTime::ZERO,
                marks: Vec::new(),
                recipients: 1,
            });
            (books.len() - 1) as u32
        })
    }

    /// Book `b`.
    pub(super) fn get(&self, b: u32) -> &Book {
        &self.books[b as usize]
    }

    /// Whether row `row` of book `b` is marked.
    pub(super) fn is_marked(&self, b: u32, row: usize) -> bool {
        self.books[b as usize].marks[row]
    }

    /// Clears the mark of row `row` of book `b`; returns the book's
    /// `sent_at` if the row was marked.
    pub(super) fn take_mark(&mut self, b: u32, row: usize) -> Option<SimTime> {
        let book = &mut self.books[b as usize];
        std::mem::replace(&mut book.marks[row], false).then_some(book.sent_at)
    }

    /// Replaces book `b` with a roster just walked and its marks.
    pub(super) fn install(
        &mut self,
        b: u32,
        roster: Arc<[Arc<CandidateView>]>,
        sent_at: SimTime,
        recipients: u32,
        marks: Vec<bool>,
    ) {
        debug_assert!(
            roster.windows(2).all(|w| w[0].node < w[1].node),
            "a roster lists its sender's peers in ascending node order"
        );
        debug_assert_eq!(roster.len(), marks.len());
        self.books[b as usize] = Book {
            roster,
            sent_at,
            marks,
            recipients,
        };
    }

    /// The time `remote` was last vouched for: its book's `sent_at` while
    /// booked, else its own.
    pub(super) fn as_of(&self, remote: &RemoteView) -> SimTime {
        match self.books.get(remote.book as usize) {
            Some(book) => book.sent_at,
            None => remote.as_of,
        }
    }

    /// Clears the mark of a view that is going away; returns its book's
    /// `sent_at` if it was booked.
    pub(super) fn unmark(&mut self, remote: &RemoteView) -> Option<SimTime> {
        let book = self.books.get_mut(remote.book as usize)?;
        let node = remote.view.node;
        let row = book
            .roster
            .binary_search_by_key(&node, |view| view.node)
            .expect("a booked view is a row of its book");
        debug_assert!(Arc::ptr_eq(&book.roster[row], &remote.view));
        book.marks[row] = false;
        Some(book.sent_at)
    }

    /// Unbooks a view that stays: clears its mark and freezes the time it
    /// was last vouched for into its own `as_of`.
    pub(super) fn revoke(&mut self, remote: &mut RemoteView) {
        if let Some(sent_at) = self.unmark(remote) {
            remote.as_of = sent_at;
            remote.book = UNBOOKED;
        }
    }

    /// Length-based heap estimate: the sender table, the books, each
    /// book's marks, and this holder's share of each retained slice (the
    /// once-only rule of [`crate::footprint`]; the views it points to are
    /// charged where they are held).
    pub(super) fn heap_bytes(&self) -> u64 {
        let rows: u64 = self
            .books
            .iter()
            .map(|book| {
                let slice =
                    ARC_HEADER_BYTES + slots_estimate::<Arc<CandidateView>>(book.roster.len());
                slice.div_ceil(u64::from(book.recipients.max(1)))
                    + slots_estimate::<bool>(book.marks.len())
            })
            .sum();
        map_estimate::<NodeId, u32>(self.by_sender.len())
            + slots_estimate::<Book>(self.books.len())
            + rows
    }
}

impl PeerRegistry {
    /// Absorbs one roster from fellow broker `sender` — every view in it
    /// taken at `sent_at` — and returns how many of its views were refused.
    ///
    /// The roster is merge-walked against the sender's book in node order.
    /// A row that is the same allocation as a marked book row is held here
    /// unchanged, booked to this sender: it is renewed by the book's new
    /// `sent_at` alone. Every other row goes through
    /// [`PeerRegistry::learn_remote`], and is marked when stored. A book row
    /// the sender no longer sends freezes its view's `as_of` at the book's
    /// old `sent_at`. The last roster received becomes the book, so a
    /// round overtaken on the way is walked against the newer one; its
    /// older `sent_at` makes the held views expire sooner than the order
    /// index was told.
    pub(crate) fn absorb(
        &mut self,
        sender: NodeId,
        roster: Arc<[Arc<CandidateView>]>,
        sent_at: SimTime,
        recipients: u32,
    ) -> u64 {
        let b = self.books.open(sender);
        let book = self.books.get(b);
        let old = Arc::clone(&book.roster);
        if sent_at < book.sent_at {
            self.read.invalidate_order();
        }
        let mut marks = Vec::with_capacity(roster.len());
        let (mut row, mut dropped) = (0, 0);
        for view in roster.iter() {
            let mut kept = false;
            while let Some(was) = old.get(row) {
                kept = Arc::ptr_eq(was, view);
                if kept || was.node > view.node {
                    break;
                }
                self.unbook_row(b, row, was);
                row += 1;
            }
            if kept {
                row += 1;
                if self.books.is_marked(b, row - 1) {
                    marks.push(true);
                    continue;
                }
            }
            let stored = self.learn_remote(view, sent_at, recipients, b);
            marks.push(stored);
            dropped += u64::from(!stored);
        }
        for (row, was) in old.iter().enumerate().skip(row) {
            self.unbook_row(b, row, was);
        }
        self.books.install(b, roster, sent_at, recipients, marks);
        dropped
    }

    /// Takes row `row` of book `b` — the view `was` — off the book: if it
    /// was marked, the view it names stays held with its `as_of` frozen.
    fn unbook_row(&mut self, b: u32, row: usize, was: &CandidateView) {
        let Some(sent_at) = self.books.take_mark(b, row) else {
            return;
        };
        self.count_probe();
        if let Some(Membership::Remote(remote)) = self.members.get_mut(&was.peer) {
            remote.as_of = sent_at;
            remote.book = UNBOOKED;
        }
    }
}

#[cfg(test)]
impl Books {
    /// Every marked row, as `(book, view)`.
    pub(super) fn marked(&self) -> impl Iterator<Item = (u32, &Arc<CandidateView>)> {
        self.books.iter().enumerate().flat_map(|(b, book)| {
            let rows = book.roster.iter().zip(&book.marks);
            rows.filter(|(_, &marked)| marked)
                .map(move |(view, _)| (b as u32, view))
        })
    }

    /// The books' own invariant: rosters are in strictly ascending node
    /// order, one mark per row.
    pub(super) fn check(&self) {
        for book in &self.books {
            assert!(book.roster.windows(2).all(|w| w[0].node < w[1].node));
            assert_eq!(book.roster.len(), book.marks.len());
        }
    }
}
