//! One framed, blocking cluster connection: the driver's and the site
//! daemons' side of the wire (the coordinator runs every connection
//! from its event loop instead).
//!
//! Conversations in the cluster dialect are request/reply — write one
//! [`ClusterRequest`] frame, read one outcome frame — with two
//! exceptions, both sent with [`Framed::send_request`] and never
//! answered: a site's [`ClusterRequest::Done`] marker, and a driver's
//! [`ClusterRequest::SiteBatch`] that succeeds (one that fails is
//! answered with its error). A driver may also write to several
//! connections, or several requests to one, before reading any reply,
//! which is how a barrier reaches every site at once and how a read
//! queues behind a barrier still in flight. [`Framed`] owns the
//! buffered halves of a [`Stream`](dds_server::net::Stream) and flushes
//! after every send — a frame parked in a write buffer would stall its
//! peer. Dropping it closes the connection (a clean EOF on the far
//! side).

use std::io::{BufReader, BufWriter, Write};

use dds_proto::cluster::{
    decode_cluster_outcome, encode_cluster_outcome, ClusterError, ClusterRequest, ClusterResponse,
};
use dds_proto::frame::read_frame;
use dds_server::net::Stream;

pub(crate) struct Framed {
    reader: BufReader<Stream>,
    writer: BufWriter<Stream>,
}

impl Framed {
    pub(crate) fn new(stream: Stream) -> Result<Framed, ClusterError> {
        let reader = stream.try_clone().map_err(transport)?;
        Ok(Framed {
            reader: BufReader::new(reader),
            writer: BufWriter::new(stream),
        })
    }

    pub(crate) fn send_request(&mut self, request: &ClusterRequest) -> Result<(), ClusterError> {
        self.writer
            .write_all(&request.encode())
            .and_then(|()| self.writer.flush())
            .map_err(transport)
    }

    /// Read the next request frame; `Ok(None)` is a clean EOF.
    pub(crate) fn recv_request(&mut self) -> Result<Option<ClusterRequest>, ClusterError> {
        match read_frame(&mut self.reader)? {
            None => Ok(None),
            Some((op, payload)) => Ok(Some(ClusterRequest::decode(op, &payload)?)),
        }
    }

    pub(crate) fn send_outcome(
        &mut self,
        outcome: &Result<ClusterResponse, ClusterError>,
    ) -> Result<(), ClusterError> {
        self.writer
            .write_all(&encode_cluster_outcome(outcome))
            .and_then(|()| self.writer.flush())
            .map_err(transport)
    }

    /// Read one outcome frame; EOF here is a transport error — the
    /// peer owed us a reply.
    pub(crate) fn recv_outcome(&mut self) -> Result<ClusterResponse, ClusterError> {
        match read_frame(&mut self.reader)? {
            None => Err(ClusterError::Transport(
                "connection closed while awaiting a reply".into(),
            )),
            Some((op, payload)) => decode_cluster_outcome(op, &payload)?,
        }
    }

    /// One round trip.
    pub(crate) fn call(
        &mut self,
        request: &ClusterRequest,
    ) -> Result<ClusterResponse, ClusterError> {
        self.send_request(request)?;
        self.recv_outcome()
    }
}

fn transport(e: std::io::Error) -> ClusterError {
    ClusterError::Transport(e.to_string())
}
