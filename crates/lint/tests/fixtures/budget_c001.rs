//! C001 budget fixture: the send-budget park and the source's send loop
//! are yield points; any other await beside them still is not.

async fn source(env: &mut Env) -> Result<(), SparsedistError> {
    source_send(env, stages, owners, config).await?;
    env.send_budget().await;
    let parked = env.send_budget();
    parked.await;
    send_budget_later(env).await;
    Ok(())
}
